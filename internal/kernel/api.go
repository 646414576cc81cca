package kernel

import (
	"repro/internal/core"
	"repro/internal/hw"
)

// This file exports the kernel-internal capabilities that loaded kernel
// code (modules — including malicious ones) can exercise. On real
// hardware a module is just kernel text: it can walk the proc table,
// rewrite another process's signal state, map memory into any address
// space, and post signals. These entry points model that power; whether
// the *effects* reach protected state is decided by the HAL's checks.

// ProcByPID returns a process by pid (the proc-table walk every rootkit
// starts with).
func (k *Kernel) ProcByPID(pid int) (*Proc, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// PostSignal queues a signal for a process from kernel context.
func (k *Kernel) PostSignal(target *Proc, sig int) { k.postSignal(target, sig) }

// MmapIntoProcess creates an anonymous mapping in an arbitrary
// process's address space from kernel context (what the paper's second
// attack does via mmap on the victim).
func (k *Kernel) MmapIntoProcess(target *Proc, npages int) (hw.Virt, bool) {
	base, e := k.mmapRegion(target, npages, -1, 0)
	if e != 0 {
		return 0, false
	}
	return base, true
}

// SetRawSignalHandler rewrites a process's signal disposition directly
// (no libc wrapper, no sva.permitFunction registration) — kernel code
// can always scribble on the kernel's own sigacts table.
func (k *Kernel) SetRawSignalHandler(target *Proc, sig int, addr uint64) {
	target.sigHandlers[sig] = addr
}

// InstallRawFD plants an open file in a process's descriptor table from
// kernel context and returns the descriptor number.
func (k *Kernel) InstallRawFD(target *Proc, ops FileOps) int {
	fd, e := target.allocFD(ops, true)
	if e != 0 {
		return -1
	}
	return fd
}

// SetDevRandomHook interposes on the OS randomness source (the Iago
// randomness attack: return the same "random" value every time).
func (k *Kernel) SetDevRandomHook(fn func() uint64) { k.devRandomHook = fn }

// OpenKernelFile opens (creating if needed) a file from kernel context,
// as the rootkit does for its exfiltration target.
func (k *Kernel) OpenKernelFile(path string) (FileOps, bool) {
	ino, err := k.FS.Lookup(path)
	if err != nil {
		ino, err = k.FS.Create(path)
		if err != nil {
			return nil, false
		}
	}
	return &fsFile{fs: k.FS, ino: ino}, true
}

// ReadKernelFile reads an entire file from kernel context (the attacker
// inspecting its loot, and tests verifying exfiltration).
func (k *Kernel) ReadKernelFile(path string) ([]byte, bool) {
	ino, err := k.FS.Lookup(path)
	if err != nil {
		return nil, false
	}
	st, err := k.FS.Stat(ino)
	if err != nil {
		return nil, false
	}
	buf := make([]byte, st.Size)
	n, err := k.FS.ReadAt(ino, buf, 0)
	if err != nil {
		return nil, false
	}
	return buf[:n], true
}

// WriteKernelFile writes a file from kernel context (used to seed
// workloads and by tampering attacks). A directory is refused.
func (k *Kernel) WriteKernelFile(path string, data []byte) bool {
	ino, err := k.FS.Lookup(path)
	if err != nil {
		ino, err = k.FS.Create(path)
		if err != nil {
			return false
		}
	}
	in, err := k.FS.readInode(ino)
	if err != nil || in.Mode == modeDir {
		return false
	}
	if err := k.FS.truncate(ino, &in); err != nil {
		return false
	}
	_, err = k.FS.WriteAt(ino, data, 0)
	return err == nil
}

// SwappedGhostBlob exposes the OS's stored swap blob for a process page
// — hostile-OS inspection of swapped ghost memory.
func (k *Kernel) SwappedGhostBlob(pid int, va hw.Virt) ([]byte, bool) {
	blobs, ok := k.swappedGhost[pid]
	if !ok {
		return nil, false
	}
	b, ok := blobs[va]
	return b, ok
}

// TamperSwappedGhostBlob lets a hostile OS corrupt a stored swap blob.
func (k *Kernel) TamperSwappedGhostBlob(pid int, va hw.Virt, mutate func([]byte) []byte) bool {
	blobs, ok := k.swappedGhost[pid]
	if !ok {
		return false
	}
	b, ok := blobs[va]
	if !ok {
		return false
	}
	blobs[va] = mutate(b)
	return true
}

// InstallTrustedProgram installs a program through the trusted path:
// under Virtual Ghost the binary is built and signed by the machine's
// installer (with a fresh application key); on the baseline it is
// registered directly. Returns the binary for tests that tamper with
// it.
func (k *Kernel) InstallTrustedProgram(name string, appKey []byte, main func(p *Proc)) (*core.Binary, error) {
	if appKey == nil {
		appKey = make([]byte, 32)
		k.M.RNG.Fill(appKey)
	}
	var bin *core.Binary
	if vm, ok := k.HAL.(*core.VM); ok {
		b, err := vm.Installer().Install(name, []byte("image:"+name), appKey)
		if err != nil {
			return nil, err
		}
		bin = b
	} else {
		bin = &core.Binary{Name: name, Image: []byte("image:" + name), KeySection: appKey}
	}
	k.InstallProgram(name, bin, main)
	return bin, nil
}
