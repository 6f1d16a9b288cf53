package main

func Example() {
	main()
	// Output:
	// geofence: 1 van, 10 vehicles (5 couriers) on the grid
	//
	// t= 0.5 min  van at ( 4.2, 15.0): courier 2   ENTERED the loading zone
	// t=10.0 min  van at ( 7.0, 15.0): courier 4   ENTERED the loading zone
	// t=13.5 min  van at ( 8.1, 15.0): courier 2   left the loading zone
	// t=20.0 min  van at (10.0, 15.0): courier 6   ENTERED the loading zone
	// t=23.5 min  van at (11.1, 15.0): courier 4   left the loading zone
	// t=30.0 min  van at (13.0, 15.0): courier 8   ENTERED the loading zone
	// t=33.5 min  van at (14.1, 15.0): courier 6   left the loading zone
	// t=40.0 min  van at (16.0, 15.0): courier 10  ENTERED the loading zone
	//
	// 5 zone entries, 3 exits observed via the event stream
}
