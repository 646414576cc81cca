package core

import (
	"fmt"
	"time"
)

// Release walks a frame map the way a HAL might and trips both
// determinism analyzers: it reads host time and prints in map order.
func Release(frames map[uint64]uint64) time.Duration {
	start := time.Now()
	for va, f := range frames {
		fmt.Printf("release %#x -> %d\n", va, f)
	}
	return time.Since(start)
}
