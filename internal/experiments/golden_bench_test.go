package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenBench pins every metric and every breakdown of every BENCH
// entry `vgbench -quick -json` writes, at QuickScale with the default
// 8-CPU sweep, so a change meant to move no virtual number proves it
// with go test rather than a hand diff of two BENCH files. Host fields
// (host_ns, host_allocs, host_alloc_bytes, date, host_cpus) are not
// pinned. Each metric and each configuration's breakdown is one golden
// entry, so a failure names exactly what moved.
//
// After an intentional cost-model change, regenerate with:
//
//	go test ./internal/experiments -run TestGoldenBench -update
func TestGoldenBench(t *testing.T) {
	got := collectGoldenBench()
	if *updateGolden {
		writeGolden(t, goldenBenchPath, got)
		return
	}
	compareGoldenFile(t, goldenBenchPath, got, nil, benchLeaf.String)
}

const goldenBenchPath = "testdata/golden_bench.json"

// benchLeaf is one pinned BENCH value: a metric, or the tag-to-cycles
// breakdown of one configuration.
type benchLeaf struct {
	Metric    *float64          `json:"metric,omitempty"`
	Breakdown map[string]uint64 `json:"breakdown,omitempty"`
}

func (l benchLeaf) String() string {
	if l.Metric != nil {
		return strconv.FormatFloat(*l.Metric, 'g', -1, 64)
	}
	tags := make([]string, 0, len(l.Breakdown))
	for tag, cycles := range l.Breakdown {
		tags = append(tags, fmt.Sprintf("%s=%d", tag, cycles))
	}
	sort.Strings(tags)
	return strings.Join(tags, " ")
}

// collectGoldenBench runs every experiment of the list at quick scale
// with the 8-CPU sweep and flattens the entries into
// "metrics/<entry>/<metric>" and "breakdown/<entry>/<config>" leaves.
func collectGoldenBench() map[string]benchLeaf {
	got := make(map[string]benchLeaf)
	for _, x := range Experiments {
		e := x.Run(QuickScale(), 8).Entry
		for name, v := range e.Metrics {
			got["metrics/"+e.Name+"/"+name] = benchLeaf{Metric: &v}
		}
		for cfg, tags := range e.Breakdown {
			got["breakdown/"+e.Name+"/"+cfg] = benchLeaf{Breakdown: tags}
		}
	}
	return got
}
