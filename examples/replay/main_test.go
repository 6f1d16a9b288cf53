package main

func Example() {
	main()
	// Output:
	// recording 120 steps (one simulated hour) of waypoint mobility…
	// serialized trace: 42242 bytes for 400 objects × 120 steps
	// replayed positions exactly matching the original run: 400/400
	// the serialized scenario reproduces the run bit-for-bit
}
