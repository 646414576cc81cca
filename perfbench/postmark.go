package main

import (
	"fmt"

	"repro"
	"repro/internal/apps/postmark"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// The postmark workload: postmark.Run with the paper's Table 5 shape
// (500 base files of 500 B to 9.77 KB, 512-byte blocks, even biases) on
// a native and a Virtual Ghost kernel. One process, no sockets; the
// working set stays inside the buffer cache, as in the paper.
//
// A round is postmarkRuns back-to-back runs of postmarkTxns
// transactions on each kernel, each with its own seeded Config.Seed.
// Postmark's live file count is a random walk, and the directory scans
// grow with it, so one long run's cost depends on its seed by several
// per cent; ten shorter runs average that out.

const (
	postmarkRuns = 10
	postmarkTxns = 10_000
)

type postmarkSide struct {
	mode   repro.Mode
	sys    *repro.System
	res    []postmark.Result
	ledger hw.Ledger
}

type postmarkInstance struct {
	cfgs  []postmark.Config
	tr    *tracer
	sides []*postmarkSide
}

func postmarkWorkload(seed uint64) setupFunc {
	rng := newRNG(seed ^ 0x9057)
	cfgs := make([]postmark.Config, postmarkRuns)
	for i := range cfgs {
		cfgs[i] = postmark.PaperConfig(postmarkTxns)
		cfgs[i].Seed = rng.next()
	}
	return func(tr *tracer) (instance, error) {
		inst := &postmarkInstance{cfgs: cfgs, tr: tr}
		for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost} {
			s, err := boot(tr, mode, seed, nil)
			if err != nil {
				return nil, err
			}
			inst.sides = append(inst.sides, &postmarkSide{mode: mode, sys: s})
		}
		return inst, nil
	}
}

func (pm *postmarkInstance) run() {
	for _, s := range pm.sides {
		clock := s.sys.Machine.Clock
		pre := clock.Ledger()
		for _, cfg := range pm.cfgs {
			pm.tr.within(kindRun, func() { s.res = append(s.res, postmark.Run(s.sys.Kernel, cfg)) })
			yard.tick()
		}
		s.ledger = clock.Ledger().Sub(pre)
	}
}

func (pm *postmarkInstance) check() roundResult {
	res := roundResult{ledgers: map[string]hw.Ledger{}}
	var secs [2]float64
	for i, s := range pm.sides {
		name := modeName(s.mode)
		res.ledgers[name] = s.ledger
		made := 0
		for j, r := range s.res {
			want := pm.cfgs[j].Transactions
			res.ops += want
			secs[i] += r.Seconds
			made = max(made, pm.cfgs[j].BaseFiles+r.Creates)
			if sum := r.Creates + r.Deletes + r.Reads + r.Appends; sum != want || r.Seconds <= 0 {
				res.failed += max(missing(want, sum), 1)
				res.problem("%s run %d: transaction counts %d+%d+%d+%d = %d, want %d (%.3f s)",
					name, j, r.Creates, r.Deletes, r.Reads, r.Appends, sum, want, r.Seconds)
			}
		}
		if left := leftoverFiles(s.sys.Kernel, made); left > 0 {
			res.failed += left
			res.problem("%s: %d Postmark files left in the root directory", name, left)
		}
	}
	if secs[0] > 0 {
		res.overhead = secs[1] / secs[0]
	}
	return res
}

func (pm *postmarkInstance) discard() {}

// leftoverFiles stats every name Postmark gave out (/pm000001 up to
// made, plus the next one) from a fresh process and counts those that
// still exist. Postmark deletes its whole set at the end, so the root
// directory must hold none of them.
func leftoverFiles(k *kernel.Kernel, made int) int {
	left := -1
	if _, err := k.Spawn("pmcheck", func(p *kernel.Proc) {
		left = 0
		st := p.Alloc(16)
		for i := 1; i <= made+1; i++ {
			path := p.PushString(fmt.Sprintf("/pm%06d", i))
			if _, bad := kernel.IsErr(p.Syscall(kernel.SysStat, path, st)); !bad {
				left++
			}
		}
	}); err != nil {
		return 1
	}
	k.RunUntilIdle()
	if left < 0 {
		return 1 // the check process never ran
	}
	return left
}
