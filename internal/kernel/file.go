package kernel

import "fmt"

// FileOps is the vnode-style interface every file-like object
// implements: regular files, pipes, sockets, and devices.
type FileOps interface {
	// Read reads up to n bytes at offset off (offset ignored by
	// non-seekable objects) and returns the bytes it produced: empty at
	// end of file. It blocks (via p) when no data is available on a
	// blocking object. The slice is a view into kernel memory (a
	// per-kernel scratch buffer, a pipe buffer, or a received segment)
	// and stays valid only until the next read on this kernel; the
	// caller copies it out at once.
	Read(p *Proc, n int, off int64) ([]byte, error)
	// WriteAt writes b at off.
	WriteAt(p *Proc, b []byte, off int64) (int, error)
	// Size returns the current size, if meaningful.
	Size() int64
	// Ready reports whether a read would not block (select support).
	Ready() bool
	// Close drops one reference.
	Close(k *Kernel) error
}

// FileDesc is one open-file-table entry; dup'd descriptors share it.
type FileDesc struct {
	Ops      FileOps
	Off      int64
	Refs     int
	Seekable bool
	// Readable and Writable are the directions read and write may use
	// (EBADF otherwise). open sets them from its access mode; pipes,
	// sockets and poll sets allow both and leave any refusal to their
	// FileOps.
	Readable, Writable bool
}

// allocFD installs ops in the lowest free descriptor slot, growing the
// table (up to maxFDs) when every existing slot is taken. The second
// result is a plain errno code (0 = success); syscall handlers negate
// it exactly once via errno().
func (p *Proc) allocFD(ops FileOps, seekable bool) (int, uint64) {
	d := &FileDesc{Ops: ops, Refs: 1, Seekable: seekable, Readable: true, Writable: true}
	fd := -1
	// Slots below fdHint are all occupied, so this scan touches only
	// slots freed since the last alloc (amortized O(1)).
	for i := p.fdHint; i < len(p.fds); i++ {
		if p.fds[i] == nil {
			fd = i
			break
		}
	}
	if fd < 0 {
		if len(p.fds) >= maxFDs {
			return -1, EMFILE
		}
		fd = len(p.fds)
		p.fds = append(p.fds, nil)
	}
	p.fds[fd] = d
	p.fdHint = fd + 1
	p.fdChanged(fd, nil, ops)
	return fd, 0
}

// fd fetches a descriptor; the errno result follows allocFD's
// convention.
func (p *Proc) fd(n int) (*FileDesc, uint64) {
	if n < 0 || n >= len(p.fds) || p.fds[n] == nil {
		return nil, EBADF
	}
	return p.fds[n], 0
}

// closeFD drops a descriptor.
func (p *Proc) closeFD(k *Kernel, n int) uint64 {
	d, e := p.fd(n)
	if e != 0 {
		return e
	}
	p.fds[n] = nil
	if n < p.fdHint {
		p.fdHint = n
	}
	p.fdChanged(n, d.Ops, nil)
	d.Refs--
	if d.Refs == 0 {
		if err := d.Ops.Close(k); err != nil {
			return EFAULT
		}
	}
	return 0
}

// fdChanged reports that slot n of p's table went from old to cur
// (either may be nil) to every poll set p owns.
func (p *Proc) fdChanged(n int, old, cur FileOps) {
	for _, ps := range p.pollSets {
		ps.retarget(n, old, cur)
	}
}

// closeAllFDs releases every descriptor at exit.
func (p *Proc) closeAllFDs(k *Kernel) {
	for i := range p.fds {
		if p.fds[i] != nil {
			_ = p.closeFD(k, i)
		}
	}
}

// --- devices -------------------------------------------------------------

// consoleFile is /dev/console: writes append to the machine console.
type consoleFile struct{ k *Kernel }

func (c *consoleFile) Read(p *Proc, n int, off int64) ([]byte, error) { return nil, nil }
func (c *consoleFile) WriteAt(p *Proc, b []byte, off int64) (int, error) {
	c.k.Console().Printf("%s", string(b))
	return len(b), nil
}
func (c *consoleFile) Size() int64           { return 0 }
func (c *consoleFile) Ready() bool           { return false }
func (c *consoleFile) Close(k *Kernel) error { return nil }

// nullFile is /dev/null.
type nullFile struct{}

func (nullFile) Read(p *Proc, n int, off int64) ([]byte, error)    { return nil, nil }
func (nullFile) WriteAt(p *Proc, b []byte, off int64) (int, error) { return len(b), nil }
func (nullFile) Size() int64                                       { return 0 }
func (nullFile) Ready() bool                                       { return false }
func (nullFile) Close(k *Kernel) error                             { return nil }

// randomFile is /dev/random: OS-provided randomness, which a hostile
// kernel can bias (the Iago attack vector); ghosting applications use
// the VM's trusted instruction instead.
type randomFile struct{ k *Kernel }

// maxRandomRead caps one /dev/random read. Larger requests return a
// short count, as Linux does for large /dev/urandom reads, so the
// request length never sizes a host buffer.
const maxRandomRead = 64 << 10

func (r *randomFile) Read(p *Proc, n int, off int64) ([]byte, error) {
	b := r.k.readScratch(min(n, maxRandomRead))
	for i := range b {
		var v uint64
		if r.k.devRandomHook != nil {
			v = r.k.devRandomHook()
		} else {
			v = r.k.M.RNG.Next()
		}
		b[i] = byte(v)
	}
	return b, nil
}
func (r *randomFile) WriteAt(p *Proc, b []byte, off int64) (int, error) {
	return 0, fmt.Errorf("read-only")
}
func (r *randomFile) Size() int64           { return 0 }
func (r *randomFile) Ready() bool           { return true }
func (r *randomFile) Close(k *Kernel) error { return nil }

// openDevice resolves the /dev namespace.
func (k *Kernel) openDevice(name string) FileOps {
	switch name {
	case "/dev/console":
		return &consoleFile{k: k}
	case "/dev/null":
		return nullFile{}
	case "/dev/random", "/dev/urandom":
		return &randomFile{k: k}
	}
	return nil
}
