package main

func Example() {
	main()
	// Output:
	// city: 1 taxi, 81 people parked, 31 of them hailing a ride
	//
	// t= 2 min  taxi at ( 8.7,  8.7)  customers in range: []
	// t= 4 min  taxi at ( 9.4,  9.4)  customers in range: []
	// t= 6 min  taxi at (10.1, 10.1)  customers in range: []
	// t= 8 min  taxi at (10.8, 10.8)  customers in range: []
	// t=10 min  taxi at (11.5, 11.5)  customers in range: [31]
	//           (taxi turns south-east)
	// t=12 min  taxi at (12.3, 11.1)  customers in range: [31]
	// t=14 min  taxi at (13.2, 10.7)  customers in range: [31]
	// t=16 min  taxi at (14.0, 10.3)  customers in range: [31]
	// t=18 min  taxi at (14.8,  9.9)  customers in range: [31]
	// t=20 min  taxi at (15.7,  9.5)  customers in range: []
	//
	// query expired after its 20 minutes — result cleared
}
