package experiments

import "fmt"

// This file turns each experiment's result into its BENCH entry: the
// virtual metrics and per-configuration cycle breakdowns `vgbench
// -json` writes and TestGoldenBench pins. The entries carry no host
// fields; the caller times the run and fills those in.

// Table2Entry is Table 2's entry: each row's VG overhead, and each
// row's ledger per configuration.
func Table2Entry(rows []T2Row) BenchEntry {
	e := BenchEntry{
		Name:      "table2_lmbench",
		Metrics:   make(map[string]float64, len(rows)),
		Breakdown: make(map[string]map[string]uint64, 3*len(rows)),
	}
	for _, r := range rows {
		key := metricKey(r.Test)
		e.Metrics[key+"_x"] = r.Overhead
		e.Breakdown[key+"/native"] = BreakdownMap(r.NativeLedger)
		e.Breakdown[key+"/vghost"] = BreakdownMap(r.VGLedger)
		e.Breakdown[key+"/shadow"] = BreakdownMap(r.ShadowLedger)
	}
	return e
}

// Table3Entry is Table 3's entry (file deletion).
func Table3Entry(rows []FileRateRow) BenchEntry {
	return fileRateEntry("table3_file_delete", "delete", rows)
}

// Table4Entry is Table 4's entry (file creation).
func Table4Entry(rows []FileRateRow) BenchEntry {
	return fileRateEntry("table4_file_create", "create", rows)
}

// fileRateEntry records each size's overhead and ledgers under op.
func fileRateEntry(name, op string, rows []FileRateRow) BenchEntry {
	e := BenchEntry{
		Name:      name,
		Metrics:   make(map[string]float64, len(rows)),
		Breakdown: make(map[string]map[string]uint64, 2*len(rows)),
	}
	for _, r := range rows {
		key := fmt.Sprintf("%s_%db", op, r.SizeBytes)
		e.Metrics[key+"_x"] = r.Overhead
		e.Breakdown[key+"/native"] = BreakdownMap(r.NativeLedger)
		e.Breakdown[key+"/vghost"] = BreakdownMap(r.VGLedger)
	}
	return e
}

// Figure2Entry is Figure 2's entry (thttpd bandwidth).
func Figure2Entry(pts []BandwidthPoint) BenchEntry { return seriesEntry("figure2_thttpd", pts) }

// Figure3Entry is Figure 3's entry (sshd transfer rate).
func Figure3Entry(pts []BandwidthPoint) BenchEntry { return seriesEntry("figure3_sshd", pts) }

// Figure4Entry is Figure 4's entry (ssh client with ghosting).
func Figure4Entry(pts []BandwidthPoint) BenchEntry { return seriesEntry("figure4_ghosting_ssh", pts) }

// seriesEntry summarizes a bandwidth sweep by its end points.
func seriesEntry(name string, pts []BandwidthPoint) BenchEntry {
	m := make(map[string]float64, 2)
	if len(pts) > 0 {
		m[fmt.Sprintf("ratio_%db", pts[0].SizeBytes)] = pts[0].Ratio
		m[fmt.Sprintf("ratio_%db", pts[len(pts)-1].SizeBytes)] = pts[len(pts)-1].Ratio
	}
	return BenchEntry{Name: name, Metrics: m}
}

// Table5Entry is Table 5's entry (Postmark).
func Table5Entry(res T5Result) BenchEntry {
	return BenchEntry{Name: "table5_postmark", Metrics: map[string]float64{"postmark_x": res.Overhead}}
}

// SecurityEntry counts the attacks and those Virtual Ghost defended.
func SecurityEntry(rows []SecurityRow) BenchEntry {
	defended := 0
	for _, r := range rows {
		if r.Defended {
			defended++
		}
	}
	return BenchEntry{Name: "security_matrix", Metrics: map[string]float64{
		"attacks":  float64(len(rows)),
		"defended": float64(defended),
	}}
}

// CPUCountsUpTo is the part of the CPUCounts sweep at most n CPUs wide.
func CPUCountsUpTo(n int) []int {
	counts := make([]int, 0, len(CPUCounts))
	for _, c := range CPUCounts {
		if c <= n {
			counts = append(counts, c)
		}
	}
	return counts
}

// CPUScalingEntry records each machine size's speedup and per-CPU
// utilization.
func CPUScalingEntry(pts []CPUPoint) BenchEntry {
	metrics := make(map[string]float64)
	for _, p := range pts {
		metrics[fmt.Sprintf("speedup_%dcpu", p.NumCPUs)] = p.Speedup
		for c, u := range p.Utilization {
			metrics[fmt.Sprintf("util_%dcpu_cpu%d", p.NumCPUs, c)] = u
		}
	}
	return BenchEntry{Name: "cpu_scaling_ghost_httpd", Metrics: metrics}
}

// C10KEntry records both servers' load, latency and adversary outcomes,
// and each server's ledger.
func C10KEntry(cmp C10KCompare) BenchEntry {
	metrics := map[string]float64{"conns": float64(cmp.Conns)}
	for _, s := range []struct {
		name string
		r    C10KResult
	}{{"native", cmp.Native}, {"vghost", cmp.VG}} {
		metrics[s.name+"/peak_conns"] = float64(s.r.PeakConns)
		metrics[s.name+"/requests"] = float64(s.r.Requests)
		metrics[s.name+"/failures"] = float64(s.r.Failures)
		metrics[s.name+"/rps"] = s.r.RPS
		metrics[s.name+"/p50_us"] = s.r.P50us
		metrics[s.name+"/p95_us"] = s.r.P95us
		metrics[s.name+"/p99_us"] = s.r.P99us
		metrics[s.name+"/idle_killed"] = float64(s.r.IdleKilled)
		metrics[s.name+"/rejected_400"] = float64(s.r.Rejected400)
		metrics[s.name+"/timeout_kills"] = float64(s.r.NetStats.TimeoutKills)
	}
	if cmp.Native.RPS > 0 {
		metrics["rps_ratio"] = cmp.VG.RPS / cmp.Native.RPS
	}
	return BenchEntry{
		Name:    "c10k_eventd",
		Metrics: metrics,
		Breakdown: map[string]map[string]uint64{
			"c10k/native": BreakdownMap(cmp.Native.Ledger),
			"c10k/vghost": BreakdownMap(cmp.VG.Ledger),
		},
	}
}

// SnapEntry records each configuration's image size, frozen cycles
// and sealed pages. The differential is a hard determinism contract,
// not a statistic: any cold-vs-warm difference is a bug, and it panics
// rather than report numbers on top of one.
func SnapEntry(rows []SnapRow) BenchEntry {
	metrics := make(map[string]float64, 3*len(rows))
	for _, r := range rows {
		if !r.Identical || r.ColdCycles != r.WarmCycles {
			panic(fmt.Sprintf("snapshot determinism violated: %s cold=%d warm=%d bit-identical=%v",
				r.Config, r.ColdCycles, r.WarmCycles, r.Identical))
		}
		metrics[r.Config+"_image_bytes"] = float64(r.ImageBytes)
		metrics[r.Config+"_image_cycles"] = float64(r.ImageCycles)
		metrics[r.Config+"_sealed_pages"] = float64(r.SealedPages)
	}
	return BenchEntry{Name: "snapshot_differential", Metrics: metrics}
}

// metricKey turns a human-readable test name into a snake_case metric
// key ("fork + exec" -> "fork_exec").
func metricKey(name string) string {
	var b []byte
	lastUnderscore := true
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b = append(b, byte(c))
			lastUnderscore = false
		case c >= 'A' && c <= 'Z':
			b = append(b, byte(c-'A'+'a'))
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b = append(b, '_')
				lastUnderscore = true
			}
		}
	}
	for len(b) > 0 && b[len(b)-1] == '_' {
		b = b[:len(b)-1]
	}
	return string(b)
}
