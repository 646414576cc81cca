package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"repro"
	"repro/internal/apps/ssh"
	"repro/internal/attack"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vgcrypt"
)

// AgentPort is the local socket the victim ssh-agent serves on.
const AgentPort = 2222

// SecurityMatrix runs the §7 rootkit attacks (and the wider vector
// suite) against a live ssh-agent on both configurations and reports
// the outcomes. The SMP stale-TLB vector runs on a 2-CPU machine;
// SecurityMatrixSelect takes the machine size.
func SecurityMatrix() []SecurityRow {
	rows, err := SecurityMatrixSelect(2, nil)
	if err != nil {
		panic(err) // unreachable: nil selection never fails
	}
	return rows
}

// securityVector is one registered attack vector: a stable selection
// key (for `vgattack -only`) plus the function producing its row. smp
// is the machine configuration the SMP vectors boot.
type securityVector struct {
	Key string
	run func(smp repro.Options) SecurityRow
}

// securityVectors is the full suite, in report order. Keys are stable
// CLI/JSON identifiers; the row's Attack field carries the display name.
var securityVectors = []securityVector{
	{"direct-read", func(repro.Options) SecurityRow { return rootkitRow("rootkit: direct read", attack.DirectRead) }},
	{"sig-inject", func(repro.Options) SecurityRow { return rootkitRow("rootkit: signal inject", attack.SigInject) }},
	{"mmu-remap", func(repro.Options) SecurityRow { return vectorRow("mmu remap", runMMURemap) }},
	{"dma", func(repro.Options) SecurityRow { return vectorRow("dma", runDMA) }},
	{"swap-inspect", func(repro.Options) SecurityRow { return vectorRow("swap inspect", runSwapInspect) }},
	{"asm-module", func(repro.Options) SecurityRow {
		return vectorRow("inline-asm module", func(s *repro.System) (bool, string) {
			r := attack.AsmModuleAttack(s.Kernel)
			return r.Succeeded, r.Detail
		})
	}},
	{"rop", func(repro.Options) SecurityRow {
		return vectorRow("kernel ROP", func(s *repro.System) (bool, string) {
			r := attack.ROPAttack(s.Kernel, false)
			return r.Succeeded, r.Detail
		})
	}},
	{"fptr-hijack", func(repro.Options) SecurityRow {
		return vectorRow("fptr hijack", func(s *repro.System) (bool, string) {
			r := attack.ROPAttack(s.Kernel, true)
			return r.Succeeded, r.Detail
		})
	}},
	{"stale-tlb", staleTLBRow},
	{"snap-tamper", func(repro.Options) SecurityRow { return vectorRow("snapshot tamper", runSnapTamper) }},
}

// SecurityVectorNames returns the valid `-only` keys, in suite order.
func SecurityVectorNames() []string {
	out := make([]string, len(securityVectors))
	for i, v := range securityVectors {
		out[i] = v.Key
	}
	return out
}

// SecurityMatrixSelect runs the named subset of the attack suite (all
// vectors when keys is empty), preserving suite order. An unknown key
// is an error that lists the valid names.
func SecurityMatrixSelect(ncpus int, keys []string) ([]SecurityRow, error) {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		found := false
		for _, v := range securityVectors {
			if v.Key == k {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown attack vector %q (valid: %s)",
				k, strings.Join(SecurityVectorNames(), ", "))
		}
		want[k] = true
	}
	smp := repro.Options{Machine: hw.DefaultConfig()}
	smp.Machine.NumCPUs = ncpus
	rows := make([]SecurityRow, 0, len(securityVectors))
	for _, v := range securityVectors {
		if len(want) > 0 && !want[v.Key] {
			continue
		}
		rows = append(rows, v.run(smp))
	}
	return rows, nil
}

// staleTLBRow runs the SMP stale-TLB attack; unlike the other vectors
// it needs a multi-CPU machine (a remote TLB to go stale).
func staleTLBRow(smp repro.Options) SecurityRow {
	run := func(mode repro.Mode) (bool, string) {
		sys, err := repro.NewSystemWithOptions(mode, smp)
		if err != nil {
			panic(err)
		}
		r := attack.StaleTLBAttack(sys.Kernel, []byte("STALE-TLB-SECRET-0xFEED"))
		return r.Succeeded, r.Detail
	}
	row := SecurityRow{Attack: "stale tlb (smp)"}
	natOK, natDetail := run(repro.Native)
	vgOK, vgDetail := run(repro.VirtualGhost)
	row.NativeResult = verdict(natOK, natDetail)
	row.VGResult = verdict(vgOK, vgDetail)
	row.Defended = natOK && !vgOK
	return row
}

// agentVictim boots a system with a running ssh-agent and returns its
// published state.
func agentVictim(mode repro.Mode) (*repro.System, *ssh.AgentState) {
	sys := mustSystem(mode)
	k := sys.Kernel
	// Provision the agent's sealed key file.
	appKey := make([]byte, 32)
	k.M.RNG.Fill(appKey)
	seedAgentKey(k, appKey)
	st := &ssh.AgentState{}
	if _, err := k.InstallTrustedProgram("/bin/ssh-agent", appKey, ssh.AgentMain(AgentPort, st)); err != nil {
		panic(err)
	}
	if _, err := k.SpawnProgram("/bin/ssh-agent"); err != nil {
		panic(err)
	}
	if !k.RunUntil(func() bool { return st.Ready }) {
		panic("experiments: agent never became ready")
	}
	return sys, st
}

func seedAgentKey(k *kernel.Kernel, appKey []byte) {
	var seed [32]byte
	k.M.RNG.Fill(seed[:])
	pair := vgcrypt.DeriveKeyPair(seed)
	sealed, err := vgcrypt.SealWithKeyAndCounter(appKey, 1, pair.Private)
	if err != nil {
		panic(err)
	}
	k.WriteKernelFile(ssh.PrivateKeyPath, sealed)
}

func rootkitRow(name string, mode attack.Mode) SecurityRow {
	row := SecurityRow{Attack: name}
	natOK, natDetail := runRootkit(repro.Native, mode)
	vgOK, vgDetail := runRootkit(repro.VirtualGhost, mode)
	row.NativeResult = verdict(natOK, natDetail)
	row.VGResult = verdict(vgOK, vgDetail)
	row.Defended = natOK && !vgOK
	return row
}

func runRootkit(sysMode repro.Mode, atkMode attack.Mode) (bool, string) {
	sys, st := agentVictim(sysMode)
	k := sys.Kernel
	rk, err := attack.InstallRootkit(k)
	if err != nil {
		return false, fmt.Sprintf("module rejected: %v", err)
	}
	rk.Arm(st.PID, st.SecretAddr, len(ssh.AgentSecret), atkMode)
	// Drive the agent: a client request makes it read() from the
	// socket, triggering the interposed handler.
	done := false
	if _, err := k.Spawn("driver", func(p *kernel.Proc) {
		fd := p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysConnect, fd, AgentPort)
		req := p.PushString("SIGN hello")
		p.Syscall(kernel.SysSendTo, fd, req, 10)
		buf := p.Alloc(128)
		p.Syscall(kernel.SysRecv, fd, buf, 128)
		p.Syscall(kernel.SysClose, fd)
		// Quit the agent.
		fd = p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysConnect, fd, AgentPort)
		q := p.PushString("QUIT")
		p.Syscall(kernel.SysSendTo, fd, q, 4)
		p.Syscall(kernel.SysClose, fd)
		done = true
	}); err != nil {
		panic(err)
	}
	if !k.RunUntil(func() bool { return done && rk.Fired }) {
		return false, "attack never triggered"
	}
	k.RunUntilIdle()
	switch atkMode {
	case attack.DirectRead:
		if k.Console().Contains(ssh.AgentSecret[:24]) {
			return true, "secret printed to system log"
		}
		return false, "log contains no secret"
	case attack.SigInject:
		loot, _ := k.ReadKernelFile(rk.ExfilPath)
		if bytes.Contains(loot, []byte(ssh.AgentSecret)) {
			return true, "secret exfiltrated to file"
		}
		return false, fmt.Sprintf("no exfiltration (signals blocked: %d)", k.Stats().SignalsBlocked)
	}
	return false, "?"
}

func vectorRow(name string, run func(*repro.System) (bool, string)) SecurityRow {
	row := SecurityRow{Attack: name}
	natOK, natDetail := run(mustSystem(repro.Native))
	vgOK, vgDetail := run(mustSystem(repro.VirtualGhost))
	row.NativeResult = verdict(natOK, natDetail)
	row.VGResult = verdict(vgOK, vgDetail)
	row.Defended = natOK && !vgOK
	return row
}

func runMMURemap(sys *repro.System) (bool, string) {
	sys2, st := agentVictim(sys.Mode)
	k := sys2.Kernel
	victim, ok := k.ProcByPID(st.PID)
	if !ok {
		return false, "victim gone"
	}
	r := attack.MMURemapAttack(k, victim, hw.Virt(st.SecretAddr), []byte(ssh.AgentSecret))
	return r.Succeeded, r.Detail
}

func runDMA(sys *repro.System) (bool, string) {
	sys2, st := agentVictim(sys.Mode)
	k := sys2.Kernel
	victim, ok := k.ProcByPID(st.PID)
	if !ok {
		return false, "victim gone"
	}
	r := attack.DMAAttack(k, victim, hw.PageOf(hw.Virt(st.SecretAddr)), []byte(ssh.AgentSecret))
	return r.Succeeded, r.Detail
}

func runSwapInspect(sys *repro.System) (bool, string) {
	sys2, st := agentVictim(sys.Mode)
	k := sys2.Kernel
	victim, ok := k.ProcByPID(st.PID)
	if !ok {
		return false, "victim gone"
	}
	page := hw.PageOf(hw.Virt(st.SecretAddr))
	// The OS swaps the page out directly.
	blob, err := k.HAL.SwapOutGhost(victim.TID(), page)
	if err != nil {
		return false, fmt.Sprintf("swap-out failed: %v", err)
	}
	if bytes.Contains(blob, []byte(ssh.AgentSecret)) {
		return true, "swap blob holds plaintext secret"
	}
	return false, fmt.Sprintf("swap blob opaque (%d bytes)", len(blob))
}

func verdict(ok bool, detail string) string {
	if ok {
		return "STOLEN: " + detail
	}
	return "safe: " + detail
}

func mustSystem(mode repro.Mode) *repro.System {
	s, err := repro.NewSystem(mode)
	if err != nil {
		panic(err)
	}
	return s
}
