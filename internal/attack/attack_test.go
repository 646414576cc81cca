package attack

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libc"
)

const secretString = "SSH-AGENT-SECRET-KEY-MATERIAL-0xA11CE"

func boot(t *testing.T, mode core.Mode) *kernel.Kernel {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	var hal core.HAL
	var err error
	if mode == core.ModeVirtualGhost {
		hal, err = core.NewVM(m)
	} else {
		hal, err = core.NewNativeHAL(m)
	}
	if err != nil {
		t.Fatalf("hal: %v", err)
	}
	k, err := kernel.Boot(hal)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return k
}

// victim is a process that stores a secret in its (ghost) heap and then
// reads from a file in a loop — the behaviour the rootkit's read()
// interposition preys on.
type victimState struct {
	pid        int
	secretAddr uint64
	ready      bool
	intact     bool
	finished   bool
	// hold keeps the victim alive (blocked) after its reads until
	// release is set, so attacks can operate on the live process.
	hold    bool
	release bool
}

func spawnVictim(t *testing.T, k *kernel.Kernel, vs *victimState, reads int) {
	t.Helper()
	k.WriteKernelFile("/mail.txt", []byte("dear victim, please read me"))
	_, err := k.Spawn("ssh-agent", func(p *kernel.Proc) {
		l, err := libc.NewGhosting(p)
		if err != nil {
			t.Errorf("libc: %v", err)
			return
		}
		sp, err := l.Malloc(len(secretString))
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		l.WriteGhost(sp, []byte(secretString))
		vs.pid = p.PID
		vs.secretAddr = uint64(sp)
		vs.ready = true
		// Give the attacker a window to arm before the reads begin.
		p.Syscall(kernel.SysYield)
		fd, err := l.Open("/mail.txt", kernel.ORdOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		buf, _ := l.Malloc(64)
		for i := 0; i < reads; i++ {
			p.Syscall(kernel.SysLseek, uint64(fd), 0, 0)
			if _, err := l.Read(fd, buf, 16); err != nil {
				t.Errorf("victim read: %v", err)
			}
		}
		vs.intact = bytes.Equal(l.ReadGhost(sp, len(secretString)), []byte(secretString))
		vs.finished = true
		if vs.hold {
			p.Syscall(kernel.SysYield) // let the test observe us alive
			for !vs.release {
				p.Syscall(kernel.SysYield)
			}
		}
	})
	if err != nil {
		t.Fatalf("spawn victim: %v", err)
	}
}

// TestRootkitDirectRead reproduces §7 attack 1 on both configurations.
func TestRootkitDirectRead(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		k := boot(t, mode)
		vs := &victimState{}
		spawnVictim(t, k, vs, 3)
		if !k.RunUntil(func() bool { return vs.ready }) {
			t.Fatalf("[%v] victim never became ready", mode)
		}
		rk, err := InstallRootkit(k)
		if err != nil {
			t.Fatalf("[%v] install rootkit: %v", mode, err)
		}
		rk.Arm(vs.pid, vs.secretAddr, len(secretString), DirectRead)
		k.RunUntilIdle()
		if !rk.Fired {
			t.Fatalf("[%v] rootkit never fired", mode)
		}
		leaked := k.Console().Contains(secretString[:16])
		switch mode {
		case core.ModeNative:
			if !leaked {
				t.Errorf("native: direct-read attack should leak the secret to the console")
			}
		case core.ModeVirtualGhost:
			if leaked {
				t.Errorf("virtual ghost: direct-read attack leaked the secret")
			}
			if !vs.finished || !vs.intact {
				t.Errorf("virtual ghost: victim should continue unaffected (finished=%v intact=%v)",
					vs.finished, vs.intact)
			}
		}
	}
}

// TestRootkitSigInject reproduces §7 attack 2 on both configurations.
func TestRootkitSigInject(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		k := boot(t, mode)
		vs := &victimState{}
		spawnVictim(t, k, vs, 5)
		if !k.RunUntil(func() bool { return vs.ready }) {
			t.Fatalf("[%v] victim never became ready", mode)
		}
		rk, err := InstallRootkit(k)
		if err != nil {
			t.Fatalf("[%v] install rootkit: %v", mode, err)
		}
		rk.Arm(vs.pid, vs.secretAddr, len(secretString), SigInject)
		k.RunUntilIdle()
		if !rk.Fired {
			t.Fatalf("[%v] rootkit never fired", mode)
		}
		loot, _ := k.ReadKernelFile(rk.ExfilPath)
		stolen := bytes.Contains(loot, []byte(secretString))
		switch mode {
		case core.ModeNative:
			if !stolen {
				t.Errorf("native: signal-injection attack should exfiltrate the secret (got %q)", loot)
			}
		case core.ModeVirtualGhost:
			if stolen {
				t.Errorf("virtual ghost: signal-injection attack exfiltrated the secret")
			}
			if k.Stats().SignalsBlocked == 0 {
				t.Errorf("virtual ghost: expected sva.ipush.function to refuse the injected handler")
			}
			if !vs.finished || !vs.intact {
				t.Errorf("virtual ghost: victim should continue unaffected (finished=%v intact=%v)",
					vs.finished, vs.intact)
			}
		}
	}
}

// runWithGhostSecret spawns a victim, waits until its secret is in
// (ghost) memory, and returns the process and the page VA.
func runWithGhostSecret(t *testing.T, k *kernel.Kernel) (*kernel.Proc, hw.Virt) {
	t.Helper()
	vs := &victimState{hold: true}
	spawnVictim(t, k, vs, 1)
	if !k.RunUntil(func() bool { return vs.finished }) {
		t.Fatalf("victim never finished setup")
	}
	p, ok := k.ProcByPID(vs.pid)
	if !ok {
		t.Fatalf("victim vanished")
	}
	return p, hw.Virt(vs.secretAddr)
}

func TestMMURemapAttack(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		k := boot(t, mode)
		victim, secretVA := runWithGhostSecret(t, k)
		res := MMURemapAttack(k, victim, secretVA, []byte(secretString))
		if (mode == core.ModeNative) != res.Succeeded {
			t.Errorf("[%v] %s", mode, res)
		}
	}
}

func TestDMAAttack(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		k := boot(t, mode)
		victim, secretVA := runWithGhostSecret(t, k)
		res := DMAAttack(k, victim, hw.PageOf(secretVA), []byte(secretString))
		if (mode == core.ModeNative) != res.Succeeded {
			t.Errorf("[%v] %s", mode, res)
		}
	}
}

func TestICTamperAttack(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		k := boot(t, mode)
		vs := &victimState{}
		spawnVictim(t, k, vs, 4)
		if !k.RunUntil(func() bool { return vs.ready }) {
			t.Fatalf("victim never ready")
		}
		tamper := ICTamperAttack(k, vs.pid, vs.secretAddr, len(secretString), "/ic.stolen")
		tamper.Arm()
		k.RunUntilIdle()
		if !tamper.Fired {
			t.Fatalf("[%v] tamper hook never fired", mode)
		}
		loot, _ := k.ReadKernelFile("/ic.stolen")
		stolen := bytes.Contains(loot, []byte(secretString))
		switch mode {
		case core.ModeNative:
			if !tamper.GotFrame || !stolen {
				t.Errorf("native: IC tampering should steal the secret (frame=%v stolen=%v)",
					tamper.GotFrame, stolen)
			}
		case core.ModeVirtualGhost:
			if tamper.GotFrame || stolen {
				t.Errorf("virtual ghost: IC should be unreachable (frame=%v stolen=%v)",
					tamper.GotFrame, stolen)
			}
		}
	}
}

func TestIagoMmap(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		k := boot(t, mode)
		restore := IagoMmapAttack(k)
		var rejected bool
		_, err := k.Spawn("app", func(p *kernel.Proc) {
			l, err := libc.NewGhosting(p)
			if err != nil {
				// NewGhosting itself mmaps a staging buffer; under the
				// Iago handler that fails safely too.
				rejected = true
				return
			}
			if _, err := l.Mmap(hw.PageSize); err != nil {
				rejected = true
			}
		})
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		k.RunUntilIdle()
		restore()
		// The libc Iago defence protects on both configurations (it is
		// application-side instrumentation).
		if !rejected {
			t.Errorf("[%v] ghost-partition mmap pointer was accepted", mode)
		}
	}
}

func TestRandomnessAttack(t *testing.T) {
	k := boot(t, core.ModeVirtualGhost)
	restore := RandomnessAttack(k)
	defer restore()
	var osVals, vmVals []uint64
	_, err := k.Spawn("app", func(p *kernel.Proc) {
		for i := 0; i < 4; i++ {
			osVals = append(osVals, p.Syscall(kernel.SysRandom))
			vmVals = append(vmVals, p.TrustedRandom())
		}
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	k.RunUntilIdle()
	allSame := true
	for _, v := range osVals {
		if v != osVals[0] {
			allSame = false
		}
	}
	if !allSame {
		t.Errorf("OS randomness should be fully attacker-controlled, got %v", osVals)
	}
	vmSame := true
	for _, v := range vmVals {
		if v != vmVals[0] {
			vmSame = false
		}
	}
	if vmSame {
		t.Errorf("trusted randomness should be unaffected by the hook, got %v", vmVals)
	}
}

func TestSwapAttacks(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		k := boot(t, mode)
		var page hw.Virt
		var pid int
		var secretAfter []byte
		var phase = 0
		_, err := k.Spawn("swapper", func(p *kernel.Proc) {
			va, err := p.AllocGM(1)
			if err != nil {
				t.Fatalf("allocgm: %v", err)
			}
			page = va
			pid = p.PID
			p.Write(uint64(va), []byte(secretString))
			// Ask the OS to swap the page out.
			if ret := p.Syscall(kernel.SysSwapOut, uint64(va)); ret != 0 {
				t.Fatalf("[%v] swap-out failed: %d", mode, int64(ret))
			}
			phase = 1
			p.Syscall(kernel.SysYield)
			// Touch the page: faults, swap-in, secret restored.
			secretAfter = p.Read(uint64(va), len(secretString))
			phase = 2
		})
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		if !k.RunUntil(func() bool { return phase >= 1 }) {
			t.Fatalf("[%v] never swapped", mode)
		}
		res := SwapInspectionAttack(k, mustProc(t, k, pid), page, []byte(secretString))
		if (mode == core.ModeNative) != res.Succeeded {
			t.Errorf("[%v] %s", mode, res)
		}
		k.RunUntilIdle()
		if phase != 2 || !bytes.Equal(secretAfter, []byte(secretString)) {
			t.Errorf("[%v] swap-in did not restore the secret (phase=%d got %q)", mode, phase, secretAfter)
		}
	}
}

func TestSwapTamperDetected(t *testing.T) {
	k := boot(t, core.ModeVirtualGhost)
	var page hw.Virt
	var pid int
	died := false
	var phase = 0
	_, err := k.Spawn("swapper", func(p *kernel.Proc) {
		va, _ := p.AllocGM(1)
		page, pid = va, p.PID
		p.Write(uint64(va), []byte(secretString))
		p.Syscall(kernel.SysSwapOut, uint64(va))
		phase = 1
		p.Syscall(kernel.SysYield)
		// Touching the tampered page must NOT yield corrupt data; the
		// VM rejects the blob and the process dies rather than
		// consuming attacker bytes.
		_ = p.Read(uint64(va), 8)
		phase = 2
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !k.RunUntil(func() bool { return phase >= 1 }) {
		t.Fatalf("never swapped")
	}
	if !k.TamperSwappedGhostBlob(pid, page, func(b []byte) []byte {
		b[len(b)-1] ^= 0xff
		return b
	}) {
		t.Fatalf("no blob to tamper")
	}
	k.RunUntilIdle()
	died = phase != 2
	if !died {
		t.Errorf("tampered swap blob was accepted")
	}
}

func TestAsmModuleRejectedUnderVG(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		k := boot(t, mode)
		res := AsmModuleAttack(k)
		if (mode == core.ModeNative) != res.Succeeded {
			t.Errorf("[%v] %s", mode, res)
		}
		if mode == core.ModeVirtualGhost && !strings.Contains(res.Detail, "assembly") {
			t.Errorf("expected inline-assembly rejection, got %s", res.Detail)
		}
	}
}

func TestROPAndFptrHijack(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeVirtualGhost} {
		for _, indirect := range []bool{false, true} {
			k := boot(t, mode)
			res := ROPAttack(k, indirect)
			if (mode == core.ModeNative) != res.Succeeded {
				t.Errorf("[%v indirect=%v] %s", mode, indirect, res)
			}
		}
	}
}

// TestBinaryTamperRefused: modifying an installed binary prevents it
// from starting under Virtual Ghost (security guarantee 4).
func TestBinaryTamperRefused(t *testing.T) {
	k := boot(t, core.ModeVirtualGhost)
	vm := k.HAL.(*core.VM)
	bin, err := vm.Installer().Install("/bin/secure", []byte("real image"), make([]byte, 32))
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	// The hostile OS swaps in different code for the same key section.
	bin.Image = []byte("evil image")
	ran := false
	k.InstallProgram("/bin/secure", bin, func(p *kernel.Proc) { ran = true })
	if _, err := k.SpawnProgram("/bin/secure"); err == nil {
		t.Fatalf("tampered binary was accepted")
	}
	k.RunUntilIdle()
	if ran {
		t.Errorf("tampered binary executed")
	}
}

// TestBinaryTamperAfterExec: the hostile OS lets /bin/true exec twice,
// so its signature sits in the VM's verified-binary table, then flips
// one byte of the installed image in place. The next execve must fail
// with EPERM, and the changed image must not run, whether it is exec'd
// or spawned.
func TestBinaryTamperAfterExec(t *testing.T) {
	k := boot(t, core.ModeVirtualGhost)
	runs := 0
	if _, err := k.InstallTrustedProgram("/bin/true", nil, func(p *kernel.Proc) {
		runs++
		p.Exit(0)
	}); err != nil {
		t.Fatalf("install: %v", err)
	}
	var execRet []uint64
	var execErr []error
	shell := func(raw bool) {
		t.Helper()
		if _, err := k.Spawn("sh", func(p *kernel.Proc) {
			p.Fork(func(c *kernel.Proc) {
				if raw {
					execRet = append(execRet, c.Syscall(kernel.SysExecve, c.PushString("/bin/true")))
				} else {
					execErr = append(execErr, c.Exec("/bin/true"))
				}
				c.Exit(1)
			})
			p.Wait()
		}); err != nil {
			t.Fatal(err)
		}
		k.RunUntilIdle()
	}
	shell(false)
	shell(false)
	if runs != 2 || len(execErr) != 0 {
		t.Fatalf("genuine /bin/true: %d runs, exec errors %v", runs, execErr)
	}

	prog, _ := k.Program("/bin/true")
	prog.Bin.Image[0] ^= 1
	shell(true)
	if e, bad := kernel.IsErr(execRet[0]); !bad || e != kernel.EPERM {
		t.Errorf("execve of the tampered image returned %#x, want EPERM", execRet[0])
	}
	shell(false)
	if len(execErr) != 1 || execErr[0] == nil {
		t.Errorf("exec of the tampered image: %v", execErr)
	}
	if _, err := k.SpawnProgram("/bin/true"); !errors.Is(err, core.ErrBadBinary) {
		t.Errorf("spawn of the tampered image: %v", err)
	}
	k.RunUntilIdle()
	if runs != 2 {
		t.Errorf("tampered image ran: %d runs, want 2", runs)
	}
}

func mustProc(t *testing.T, k *kernel.Kernel, pid int) *kernel.Proc {
	t.Helper()
	p, ok := k.ProcByPID(pid)
	if !ok {
		t.Fatalf("pid %d vanished", pid)
	}
	return p
}

// TestRootkitStealthAndUninstall: the interposed read() must still
// service reads correctly (the rootkit hides), and Uninstall restores
// the pristine handler.
func TestRootkitStealthAndUninstall(t *testing.T) {
	k := boot(t, core.ModeVirtualGhost)
	k.WriteKernelFile("/cover.txt", []byte("innocuous file contents"))
	rk, err := InstallRootkit(k)
	if err != nil {
		t.Fatal(err)
	}
	var first, second []byte
	vs := &victimState{}
	_, err = k.Spawn("reader", func(p *kernel.Proc) {
		vs.pid = p.PID
		vs.ready = true
		p.Syscall(kernel.SysYield)
		path := p.PushString("/cover.txt")
		fd := p.Syscall(kernel.SysOpen, path, kernel.ORdOnly)
		buf := p.Alloc(64)
		n := p.Syscall(kernel.SysRead, fd, buf, 64)
		first = p.Read(buf, int(n))
		// Second read after the rootkit is gone.
		p.Syscall(kernel.SysYield)
		p.Syscall(kernel.SysLseek, fd, 0, 0)
		n = p.Syscall(kernel.SysRead, fd, buf, 64)
		second = p.Read(buf, int(n))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !k.RunUntil(func() bool { return vs.ready }) {
		t.Fatal("victim not ready")
	}
	rk.Arm(vs.pid, 0xffffff0000000000, 16, DirectRead)
	if !k.RunUntil(func() bool { return rk.Fired }) {
		t.Fatal("never fired")
	}
	rk.Uninstall()
	k.RunUntilIdle()
	want := "innocuous file contents"
	if string(first) != want || string(second) != want {
		t.Errorf("reads disturbed: %q / %q", first, second)
	}
}

// TestICTamperUninstall restores the read handler.
func TestICTamperUninstall(t *testing.T) {
	k := boot(t, core.ModeNative)
	tamper := ICTamperAttack(k, 999, 0, 0, "/none")
	tamper.Uninstall()
	// Reads must work normally afterwards.
	k.WriteKernelFile("/f", []byte("abc"))
	var got []byte
	if _, err := k.Spawn("r", func(p *kernel.Proc) {
		fd := p.Syscall(kernel.SysOpen, p.PushString("/f"), kernel.ORdOnly)
		buf := p.Alloc(8)
		n := p.Syscall(kernel.SysRead, fd, buf, 8)
		got = p.Read(buf, int(n))
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if string(got) != "abc" {
		t.Errorf("read after uninstall = %q", got)
	}
}

// TestAttackOnWrongPIDDoesNothing: the rootkit is victim-targeted; other
// processes' reads do not trigger it.
func TestAttackOnWrongPIDDoesNothing(t *testing.T) {
	k := boot(t, core.ModeNative)
	k.WriteKernelFile("/f", []byte("x"))
	rk, err := InstallRootkit(k)
	if err != nil {
		t.Fatal(err)
	}
	rk.Arm(4242, 0x1000, 8, DirectRead)
	if _, err := k.Spawn("bystander", func(p *kernel.Proc) {
		fd := p.Syscall(kernel.SysOpen, p.PushString("/f"), kernel.ORdOnly)
		buf := p.Alloc(8)
		p.Syscall(kernel.SysRead, fd, buf, 8)
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if rk.Fired {
		t.Errorf("rootkit fired on a non-victim process")
	}
}
