//go:build !linux

package main

import "runtime"

// osYield has no portable form; yielding within the Go scheduler is the
// closest other systems offer, and paced latencies measured with it are not
// comparable with Linux ones.
func osYield() { runtime.Gosched() }
