package rtree_test

import (
	"fmt"

	"mobieyes/internal/geo"
	"mobieyes/internal/rtree"
)

// ExampleTree_Search indexes a few points and runs a range query.
func ExampleTree_Search() {
	tr := rtree.New()
	tr.Insert(rtree.Item{ID: 1, Box: geo.NewRect(1, 1, 0, 0)})
	tr.Insert(rtree.Item{ID: 2, Box: geo.NewRect(5, 5, 0, 0)})
	tr.Insert(rtree.Item{ID: 3, Box: geo.NewRect(2, 2, 0, 0)})

	ids := tr.Search(geo.NewRect(0, 0, 3, 3), nil)
	fmt.Println(len(ids), "items in [0,3]×[0,3]")
	// Output:
	// 2 items in [0,3]×[0,3]
}
