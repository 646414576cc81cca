package hw

import (
	"fmt"
	"math/rand"
	"time"
)

// Bad trips every analyzer in one function. The panic line must NOT be
// flagged: a panic fires at most once, so it cannot expose map order.
func Bad(m map[string]int) int {
	t := time.Now()
	n := 0
	for k, v := range m {
		fmt.Println(k, v)
		if v < 0 {
			panic(fmt.Sprintf("negative %s", k))
		}
		n += v
	}
	return n + rand.Int() + int(t.Unix())
}

// sink is package state: init may set it, Set may not.
var sink int

func init() { sink = 1 }

func Set(n int) { sink = n }
