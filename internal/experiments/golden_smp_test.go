package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/apps/httpd"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// TestGoldenSMP pins the multi-CPU virtual results to checked-in values,
// as TestGoldenCycles does for one CPU. Every entry runs on the epoch
// scheduler (DESIGN.md §14): the ghost-webserver scaling sweep at 2, 4
// and 8 CPUs, the event server under concurrent clients on 4 CPUs, and
// the security matrix with its SMP vectors on 2 CPUs. Each fingerprint
// digests cycle totals, machine and per-CPU ledgers, per-CPU busy
// counters and kernel stats, so any change to dispatch order, epoch
// phasing or cross-CPU delivery fails here with the lines that moved.
//
// After an intentional cost-model change, regenerate with:
//
//	go test ./internal/experiments -run TestGoldenSMP -update
func TestGoldenSMP(t *testing.T) {
	got := collectGoldenSMP(t)
	if *updateGolden {
		writeGolden(t, goldenSMPPath, got)
		return
	}
	compareGoldenFile(t, goldenSMPPath, got, func(lines []string) string {
		return strings.Join(lines, "\n")
	})
}

const goldenSMPPath = "testdata/golden_smp.json"

// collectGoldenSMP runs the pinned multi-CPU workloads, each on a fresh
// system, and returns every fingerprint as its lines.
func collectGoldenSMP(t *testing.T) map[string][]string {
	t.Helper()
	lines := func(s string) []string { return strings.Split(strings.TrimSuffix(s, "\n"), "\n") }
	got := make(map[string][]string)
	sc := QuickScale()
	for _, n := range []int{2, 4, 8} {
		pt := ghostServerThroughput(n, sc.HTTPRequests)
		got[fmt.Sprintf("cpu/%dcpu", n)] = lines(pt.Fingerprint)
	}
	net, err := netStackFingerprint(t)
	if err != nil {
		t.Fatal(err)
	}
	got["net/4cpu"] = lines(net)
	rows := SecurityMatrix()
	keys := SecurityVectorNames()
	if len(rows) != len(keys) {
		t.Fatalf("security matrix has %d rows for %d vectors", len(rows), len(keys))
	}
	for i, r := range rows {
		got["sec/"+keys[i]] = []string{
			"attack=" + r.Attack,
			"native=" + r.NativeResult,
			"vg=" + r.VGResult,
			fmt.Sprintf("defended=%v", r.Defended),
		}
	}
	return got
}

const netClients = 6

// netStackFingerprint runs the event-driven networking path (poll
// sets, network timers, nonblocking sockets) on a 4-CPU machine: the
// event server, concurrent keep-alive/session clients, and one
// slowloris connection reaped by its idle timer. It digests every
// deterministic virtual output. It reports a failed request through
// t.Errorf and a failed run as its error, never through t.Fatal, so it
// may run on any goroutine.
func netStackFingerprint(t *testing.T) (string, error) {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.NumCPUs = 4
	sys, err := repro.NewSystemWithOptions(repro.Native, repro.Options{Machine: cfg})
	if err != nil {
		return "", err
	}
	k := sys.Kernel
	seedFile(k, "/a.bin", 8<<10)
	appKey := make([]byte, 32)
	sys.Machine.RNG.Fill(appKey)
	// The idle timeout must outlive a busy client's between-request gap
	// (which stretches under 4-CPU per-syscall interleaving) while still
	// reaping the slowloris conn; large virtual timeouts cost no host
	// time — idle skip jumps straight to the expiry.
	if _, err := k.Spawn("eventd", httpd.EventServerMain(httpd.EventServerConfig{
		Port:              httpd.EventPort,
		IdleTimeoutCycles: 50_000_000,
		AppKey:            appKey,
	})); err != nil {
		return "", err
	}
	finished := 0
	for i := 0; i < netClients; i++ {
		idx := i
		if _, err := k.Spawn(fmt.Sprintf("client%d", i), func(p *kernel.Proc) {
			defer func() { finished++ }()
			fd, ok := httpd.EventDial(p, httpd.EventPort, false)
			if !ok {
				t.Errorf("client %d: dial failed", idx)
				return
			}
			for r := 0; r < 4; r++ {
				st, _, ok := httpd.EventRequest(p, fd, "GET /a.bin")
				if !ok || !strings.HasPrefix(st, "200 ") {
					t.Errorf("client %d: GET = %q", idx, st)
					return
				}
			}
			st, _, ok := httpd.EventRequest(p, fd, fmt.Sprintf("LOGIN u%d", idx))
			if !ok || !strings.HasPrefix(st, "210 ") {
				t.Errorf("client %d: LOGIN = %q", idx, st)
				return
			}
			tok := strings.TrimPrefix(st, "210 ")
			st, _, ok = httpd.EventRequest(p, fd, "AUTH "+tok+" /a.bin")
			if !ok || !strings.HasPrefix(st, "200 ") {
				t.Errorf("client %d: AUTH = %q", idx, st)
				return
			}
			p.Syscall(kernel.SysClose, fd)
		}); err != nil {
			return "", err
		}
	}
	// The slowloris conn exercises the idle-timeout path of the timers;
	// the EOF it blocks on arrives via a timer fire. Afterwards it
	// waits for the regular clients and shuts the server down.
	if _, err := k.Spawn("slow-then-stop", func(p *kernel.Proc) {
		fd, ok := httpd.EventDial(p, httpd.EventPort, false)
		if !ok {
			t.Error("slowloris: dial failed")
			return
		}
		frag := p.PushString("GE")
		p.Syscall(kernel.SysSendTo, fd, frag, 2)
		buf := p.Alloc(8)
		if n := p.Syscall(kernel.SysRecv, fd, buf, 8); n != 0 {
			t.Errorf("slowloris: recv = %d, want idle-kill EOF", int64(n))
		}
		p.Syscall(kernel.SysClose, fd)
		for finished < netClients {
			p.Syscall(kernel.SysYield)
		}
		httpd.StopEventServer(p, httpd.EventPort, false)
	}); err != nil {
		return "", err
	}
	k.RunUntilIdle()
	if finished != netClients {
		return "", fmt.Errorf("%d/%d clients finished", finished, netClients)
	}

	m := sys.Machine
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles=%d\n", m.Clock.Cycles())
	fmt.Fprintf(&sb, "ledger=%v\n", m.Clock.Ledger())
	for i := 0; i < k.NumCPUs(); i++ {
		fmt.Fprintf(&sb, "cpu%d=%v\n", i, m.Clock.CPULedger(i))
	}
	fmt.Fprintf(&sb, "busy=%v\n", k.CPUBusy())
	fmt.Fprintf(&sb, "stats=%+v\n", k.Stats())
	fmt.Fprintf(&sb, "net=%+v\n", k.Net.Stats())
	return sb.String(), nil
}
