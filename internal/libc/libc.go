// Package libc is the ghosting C library of the reproduction: the
// modified language runtime of paper §3.2/§6. It provides
//
//   - a ghost-memory heap allocator (malloc/calloc/realloc/free backed
//     by allocgm), so applications keep all heap data in ghost memory;
//   - system-call wrappers that copy data between ghost memory and a
//     traditional-memory staging buffer, because the OS cannot (and
//     under Virtual Ghost *must not be able to*) read ghost buffers;
//   - signal()/sigaction() wrappers that register handler entry points
//     with the VM via sva.permitFunction before installing them;
//   - secure I/O helpers that encrypt-then-write and read-then-verify
//     with the application key obtained from sva.getKey;
//   - an mmap wrapper implementing the Iago defence: pointers returned
//     by the kernel are rejected if they point into the ghost
//     partition.
//
// The paper's port of OpenSSH used exactly this structure: a 216-line
// malloc patch plus a 667-line syscall wrapper library.
package libc

import (
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vgcrypt"
)

// GPtr is a pointer into ghost memory.
type GPtr uint64

// stagingSize is the traditional-memory bounce buffer size.
const stagingSize = 64 * 1024

// Libc is one process's ghosting runtime.
type Libc struct {
	P *kernel.Proc

	// ghost heap allocator state
	heap *ghostHeap

	// staging is a traditional-memory buffer used to pass data to and
	// from the OS.
	staging     uint64
	stagingSize int

	// appKey is the application key; the authoritative copy lives in
	// ghost memory at keyPtr.
	appKey []byte
	keyPtr GPtr

	// vt tracks sealed-file versions for the replay defence
	// (replay.go).
	vt *versionTable
}

// ErrNoKey is returned by secure I/O without a loaded key.
var ErrNoKey = errors.New("libc: application key unavailable")

// NewGhosting initializes the ghosting runtime for a process: ghost
// heap, staging buffer, and the application key fetched through
// sva.getKey into ghost memory.
func NewGhosting(p *kernel.Proc) (*Libc, error) {
	l := &Libc{P: p, stagingSize: stagingSize}
	heap, err := newGhostHeap(p)
	if err != nil {
		return nil, fmt.Errorf("libc: ghost heap: %w", err)
	}
	l.heap = heap
	base := p.Syscall(kernel.SysMmap, stagingSize, ^uint64(0), 0)
	if _, bad := kernel.IsErr(base); bad {
		return nil, fmt.Errorf("libc: staging mmap failed")
	}
	l.staging = base
	if key, err := p.GetKey(); err == nil {
		l.appKey = key
		kp, err := l.Malloc(len(key))
		if err != nil {
			return nil, err
		}
		l.WriteGhost(kp, key)
		l.keyPtr = kp
	}
	return l, nil
}

// HasKey reports whether the application key was available.
func (l *Libc) HasKey() bool { return l.appKey != nil }

// Key returns the application key bytes (as read back from ghost
// memory, where the authoritative copy lives).
func (l *Libc) Key() []byte {
	if l.appKey == nil {
		return nil
	}
	return l.ReadGhost(l.keyPtr, len(l.appKey))
}

// --- ghost heap -----------------------------------------------------------

// Malloc allocates n bytes of ghost memory.
func (l *Libc) Malloc(n int) (GPtr, error) { return l.heap.alloc(n) }

// Calloc allocates zeroed ghost memory (allocgm pages arrive zeroed;
// recycled blocks are cleared here).
func (l *Libc) Calloc(n int) (GPtr, error) {
	p, err := l.heap.alloc(n)
	if err != nil {
		return 0, err
	}
	l.WriteGhost(p, make([]byte, n))
	return p, nil
}

// Realloc grows or shrinks a block, copying contents.
func (l *Libc) Realloc(p GPtr, oldN, newN int) (GPtr, error) {
	np, err := l.heap.alloc(newN)
	if err != nil {
		return 0, err
	}
	if oldN > newN {
		oldN = newN
	}
	if oldN > 0 {
		l.WriteGhost(np, l.ReadGhost(p, oldN))
	}
	l.heap.free(p)
	return np, nil
}

// Free releases a block.
func (l *Libc) Free(p GPtr) { l.heap.free(p) }

// HeapStats exposes allocator counters for tests.
func (l *Libc) HeapStats() (allocs, frees, pages int) {
	return l.heap.allocs, l.heap.frees, l.heap.pages
}

// ReadGhost copies n bytes out of ghost memory (user-privilege access;
// the application may touch its own ghost pages).
func (l *Libc) ReadGhost(p GPtr, n int) []byte { return l.P.Read(uint64(p), n) }

// WriteGhost copies bytes into ghost memory.
func (l *Libc) WriteGhost(p GPtr, b []byte) { l.P.Write(uint64(p), b) }

// --- syscall wrappers ------------------------------------------------------

// Open wraps open(2), staging the path in traditional memory.
func (l *Libc) Open(path string, flags uint64) (int, error) {
	ret := l.P.Syscall(kernel.SysOpen, l.P.PushString(path), flags)
	if e, bad := kernel.IsErr(ret); bad {
		return -1, fmt.Errorf("libc: open %s: errno %d", path, e)
	}
	return int(ret), nil
}

// Close wraps close(2).
func (l *Libc) Close(fd int) {
	l.P.Syscall(kernel.SysClose, uint64(fd))
}

// Unlink wraps unlink(2).
func (l *Libc) Unlink(path string) error {
	ret := l.P.Syscall(kernel.SysUnlink, l.P.PushString(path))
	if e, bad := kernel.IsErr(ret); bad {
		return fmt.Errorf("libc: unlink %s: errno %d", path, e)
	}
	return nil
}

// Read wraps read(2) into ghost memory: the kernel fills the staging
// buffer, then the application (which *can* address its ghost pages)
// copies the data in. This is the copy the paper's wrapper library
// performs.
func (l *Libc) Read(fd int, dst GPtr, n int) (int, error) {
	total := 0
	for total < n {
		chunk := n - total
		if chunk > l.stagingSize {
			chunk = l.stagingSize
		}
		ret := l.P.Syscall(kernel.SysRead, uint64(fd), l.staging, uint64(chunk))
		if e, bad := kernel.IsErr(ret); bad {
			return total, fmt.Errorf("libc: read: errno %d", e)
		}
		if ret > uint64(chunk) {
			// Iago defence: the count is the OS's word, and copying
			// more than the chunk would write past dst in ghost memory.
			return total, fmt.Errorf("libc: read: kernel reported %d bytes for a %d-byte read", ret, chunk)
		}
		if ret == 0 {
			break
		}
		data := l.P.Read(l.staging, int(ret))
		l.WriteGhost(dst+GPtr(total), data)
		total += int(ret)
		if int(ret) < chunk {
			break
		}
	}
	return total, nil
}

// Write wraps write(2) from ghost memory via the staging buffer.
func (l *Libc) Write(fd int, src GPtr, n int) (int, error) {
	total := 0
	for total < n {
		chunk := n - total
		if chunk > l.stagingSize {
			chunk = l.stagingSize
		}
		data := l.ReadGhost(src+GPtr(total), chunk)
		l.P.Write(l.staging, data)
		ret := l.P.Syscall(kernel.SysWrite, uint64(fd), l.staging, uint64(chunk))
		if e, bad := kernel.IsErr(ret); bad {
			return total, fmt.Errorf("libc: write: errno %d", e)
		}
		total += int(ret)
		if int(ret) < chunk {
			break
		}
	}
	return total, nil
}

// Mmap wraps mmap(2) with the Iago defence of paper §4.7: a hostile
// kernel returning a pointer into the ghost partition cannot trick the
// application into clobbering its own ghost memory — the wrapper
// applies the same bit-masking the compiler pass inserts and fails the
// call if the result moved.
func (l *Libc) Mmap(length int) (uint64, error) {
	ret := l.P.Syscall(kernel.SysMmap, uint64(length), ^uint64(0), 0)
	if e, bad := kernel.IsErr(ret); bad {
		return 0, fmt.Errorf("libc: mmap: errno %d", e)
	}
	if masked := maskAddress(ret); masked != ret {
		return 0, fmt.Errorf("libc: mmap returned a ghost-partition pointer %#x (Iago attack); rejected", ret)
	}
	return ret, nil
}

// maskAddress mirrors the compiler's sandbox masking (see
// vir.MaskAddress; duplicated here because application code links its
// own copy of the instrumentation).
func maskAddress(a uint64) uint64 {
	if a >= uint64(hw.GhostBase) {
		a |= uint64(hw.GhostEscapeBit)
	}
	return a
}

// Signal installs a signal handler: the wrapper registers the handler's
// entry with the VM (sva.permitFunction) and only then asks the kernel
// to install it — making it transparent for applications, as the
// paper's wrappers for signal()/sigaction() do.
func (l *Libc) Signal(sig int, fn kernel.HandlerFunc) (uint64, error) {
	addr := l.P.RegisterCode(fn)
	if err := l.P.PermitFunction(addr); err != nil {
		return 0, err
	}
	ret := l.P.Syscall(kernel.SysSigact, uint64(sig), addr)
	if e, bad := kernel.IsErr(ret); bad {
		return 0, fmt.Errorf("libc: sigaction: errno %d", e)
	}
	return addr, nil
}

// Rand returns trusted randomness (the VM instruction), not the
// OS-controlled /dev/random.
func (l *Libc) Rand() uint64 { return l.P.TrustedRandom() }

// randomNonce builds a sealing nonce from trusted randomness. Counter
// nonces would be per-process and could repeat across the cooperating
// processes that share one application key (ssh, ssh-keygen,
// ssh-agent), so sealing always uses the VM's entropy instead.
func (l *Libc) randomNonce() [vgcrypt.NonceSize]byte {
	var nonce [vgcrypt.NonceSize]byte
	for i := 0; i < vgcrypt.NonceSize; i += 8 {
		v := l.P.TrustedRandom()
		for j := 0; j < 8 && i+j < vgcrypt.NonceSize; j++ {
			nonce[i+j] = byte(v >> (8 * j))
		}
	}
	return nonce
}

// --- secure I/O -------------------------------------------------------------

// SecureWriteFile encrypts ghost-memory data with the application key
// (AES-GCM, which both encrypts and MACs — the paper's
// encrypt-plus-checksum discipline) and writes the sealed blob to a
// file through the untrusted OS.
func (l *Libc) SecureWriteFile(path string, src GPtr, n int) error {
	if l.appKey == nil {
		return ErrNoKey
	}
	plain := l.ReadGhost(src, n)
	l.P.ComputeCrypt(uint64(len(plain)) * hw.CostCryptPerByte)
	blob, err := vgcrypt.Seal(l.Key(), l.randomNonce(), plain)
	if err != nil {
		return err
	}
	fd, err := l.Open(path, kernel.OCreat|kernel.ORdWr|kernel.OTrunc)
	if err != nil {
		return err
	}
	defer l.Close(fd)
	// The sealed blob is not secret; it can transit traditional memory
	// directly.
	buf := l.P.Alloc(len(blob))
	l.P.Write(buf, blob)
	ret := l.P.Syscall(kernel.SysWrite, uint64(fd), buf, uint64(len(blob)))
	if int(ret) != len(blob) {
		return fmt.Errorf("libc: secure write short: %d", int64(ret))
	}
	return nil
}

// SecureReadFile reads a sealed file, verifies and decrypts it with the
// application key, and places the plaintext in fresh ghost memory. OS
// tampering is detected here (vgcrypt.ErrCorrupt).
func (l *Libc) SecureReadFile(path string) (GPtr, int, error) {
	if l.appKey == nil {
		return 0, 0, ErrNoKey
	}
	fd, err := l.Open(path, kernel.ORdOnly)
	if err != nil {
		return 0, 0, err
	}
	defer l.Close(fd)
	var blob []byte
	buf := l.P.Alloc(l.stagingSize)
	for {
		ret := l.P.Syscall(kernel.SysRead, uint64(fd), buf, uint64(l.stagingSize))
		if e, bad := kernel.IsErr(ret); bad {
			return 0, 0, fmt.Errorf("libc: read: errno %d", e)
		}
		if ret > uint64(l.stagingSize) {
			return 0, 0, fmt.Errorf("libc: read: kernel reported %d bytes for a %d-byte read", ret, l.stagingSize)
		}
		if ret == 0 {
			break
		}
		blob = append(blob, l.P.Read(buf, int(ret))...)
	}
	l.P.ComputeCrypt(uint64(len(blob)) * hw.CostCryptPerByte)
	plain, err := vgcrypt.Open(l.Key(), blob)
	if err != nil {
		return 0, 0, fmt.Errorf("libc: %s: %w", path, err)
	}
	dst, err := l.Malloc(len(plain))
	if err != nil {
		return 0, 0, err
	}
	l.WriteGhost(dst, plain)
	return dst, len(plain), nil
}
