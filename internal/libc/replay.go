package libc

import (
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vgcrypt"
)

// This file implements the paper's §10 future-work question: "how
// should applications ensure that the OS does not perform replay
// attacks by providing older versions of previously encrypted files?"
//
// The answer built here: every versioned file carries a monotonically
// increasing version number *inside* the sealed payload, and the
// application keeps its expectation of the latest version in ghost
// memory (and may persist the whole version table as another sealed,
// versioned file). A hostile OS can still serve an old file, but the
// application detects the stale version before using the contents.

// ErrReplay is returned when the OS serves an older sealed file version
// than the application last wrote.
var ErrReplay = errors.New("libc: stale file version (OS replay attack detected)")

// versionedHeader is the plaintext prefix sealed with the data:
// version (8 bytes) || path length (2) || path — binding contents to
// both a version and a location, so cross-file splicing also fails.
func versionedHeader(path string, version uint64) []byte {
	h := make([]byte, 10+len(path))
	for i := 0; i < 8; i++ {
		h[i] = byte(version >> (8 * i))
	}
	h[8] = byte(len(path))
	h[9] = byte(len(path) >> 8)
	copy(h[10:], path)
	return h
}

// versionOf tracks the latest version per path. The table itself lives
// in ghost memory: each entry's authoritative copy is serialized into a
// ghost block so that not even the table is OS-readable.
type versionTable struct {
	ptr     GPtr
	cap     int
	entries map[string]uint64
}

const versionTableBytes = 4096

func (l *Libc) versions() (*versionTable, error) {
	if l.vt != nil {
		return l.vt, nil
	}
	ptr, err := l.Malloc(versionTableBytes)
	if err != nil {
		return nil, err
	}
	l.vt = &versionTable{ptr: ptr, cap: versionTableBytes, entries: make(map[string]uint64)}
	return l.vt, nil
}

// syncVersionTable serializes the table into its ghost block (the
// in-Go map is the working copy; the ghost block is the authoritative
// storage the OS cannot see or forge).
func (l *Libc) syncVersionTable() {
	vt := l.vt
	buf := make([]byte, 0, vt.cap)
	for path, v := range vt.entries {
		if len(buf)+10+len(path) > vt.cap {
			break
		}
		buf = append(buf, versionedHeader(path, v)...)
	}
	l.WriteGhost(vt.ptr, buf)
}

// SecureWriteFileVersioned seals data with an embedded, monotonically
// increasing version and records the expected version in ghost memory.
func (l *Libc) SecureWriteFileVersioned(path string, src GPtr, n int) error {
	if l.appKey == nil {
		return ErrNoKey
	}
	vt, err := l.versions()
	if err != nil {
		return err
	}
	version := vt.entries[path] + 1
	plain := append(versionedHeader(path, version), l.ReadGhost(src, n)...)
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
	buf := l.P.Alloc(len(blob))
	l.P.Write(buf, blob)
	if ret := l.P.Syscall(kernel.SysWrite, uint64(fd), buf, uint64(len(blob))); int(ret) != len(blob) {
		return fmt.Errorf("libc: short versioned write")
	}
	vt.entries[path] = version
	l.syncVersionTable()
	return nil
}

// SecureReadFileVersioned reads a versioned sealed file, verifying both
// integrity and freshness: the embedded version must match the latest
// one recorded in ghost memory, so a replayed older file (or a blob
// renamed from another path) is rejected.
func (l *Libc) SecureReadFileVersioned(path string) (GPtr, int, error) {
	if l.appKey == nil {
		return 0, 0, ErrNoKey
	}
	vt, err := l.versions()
	if err != nil {
		return 0, 0, err
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
	if len(plain) < 10 {
		return 0, 0, fmt.Errorf("libc: %s: truncated versioned payload", path)
	}
	var version uint64
	for i := 7; i >= 0; i-- {
		version = version<<8 | uint64(plain[i])
	}
	plen := int(plain[8]) | int(plain[9])<<8
	if len(plain) < 10+plen || string(plain[10:10+plen]) != path {
		return 0, 0, fmt.Errorf("libc: %s: sealed payload names a different path (splice attack)", path)
	}
	if want := vt.entries[path]; version != want {
		return 0, 0, fmt.Errorf("%w: file claims version %d, expected %d", ErrReplay, version, want)
	}
	data := plain[10+plen:]
	dst, err := l.Malloc(len(data))
	if err != nil {
		return 0, 0, err
	}
	l.WriteGhost(dst, data)
	return dst, len(data), nil
}
