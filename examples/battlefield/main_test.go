package main

func Example() {
	main()
	// Output:
	// battlefield: commander + 20 friendly and 10 hostile units
	//
	// t= 4 min  commander at (10.8, 30.0)  friendlies ≤5 mi:  2  ≤10 mi:  8
	// t= 8 min  commander at (11.6, 30.0)  friendlies ≤5 mi:  2  ≤10 mi:  8
	// t=12 min  commander at (12.4, 30.0)  friendlies ≤5 mi:  2  ≤10 mi:  8
	// t=16 min  commander at (13.2, 30.0)  friendlies ≤5 mi:  2  ≤10 mi:  8
	// t=20 min  commander at (14.0, 30.0)  friendlies ≤5 mi:  2  ≤10 mi:  8
	// t=24 min  commander at (14.8, 30.0)  friendlies ≤5 mi:  1  ≤10 mi:  8
	// t=28 min  commander at (15.6, 30.0)  friendlies ≤5 mi:  1  ≤10 mi:  8
	// t=32 min  commander at (16.4, 30.0)  friendlies ≤5 mi:  1  ≤10 mi:  8
	// t=36 min  commander at (17.2, 30.0)  friendlies ≤5 mi:  1  ≤10 mi:  8
	// t=40 min  commander at (18.0, 30.0)  friendlies ≤5 mi:  1  ≤10 mi:  8
	//
	// both results match brute-force ground truth (grouped evaluation is exact)
}
