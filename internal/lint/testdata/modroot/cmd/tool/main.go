// The cmd tree is outside the simulation core: host time and map-order
// output are legitimate here (commands measure host cost), so only the
// whole-repo globalwrite analyzer applies, and this file writes no
// package state.
package main

import (
	"fmt"
	"time"
)

func main() {
	m := map[string]int{"a": 1}
	for k := range m {
		fmt.Println(k, time.Now())
	}
}
