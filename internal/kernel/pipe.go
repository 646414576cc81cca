package kernel

// Pipe is the kernel IPC pipe: a bounded byte queue with blocking
// semantics on both ends.
type Pipe struct {
	buf     []byte
	cap     int
	readers int
	writers int
}

const pipeCapacity = 64 * 1024

// pipeRead is the read end; pipeWrite the write end. They share the
// Pipe.
type pipeRead struct{ p *Pipe }
type pipeWrite struct{ p *Pipe }

// NewPipe creates a pipe and returns its two ends.
func NewPipe() (FileOps, FileOps) {
	p := &Pipe{cap: pipeCapacity, readers: 1, writers: 1}
	return &pipeRead{p}, &pipeWrite{p}
}

// Read returns a view of the pipe buffer's first n bytes. Writers
// only append past the view, so it stays intact until sysRead copies
// it out.
func (r *pipeRead) Read(proc *Proc, n int, off int64) ([]byte, error) {
	p := r.p
	// Block until data arrives or every writer is gone.
	proc.block(func() bool { return len(p.buf) > 0 || p.writers == 0 })
	n = min(n, len(p.buf))
	out := p.buf[:n]
	p.buf = p.buf[n:]
	return out, nil
}

func (r *pipeRead) WriteAt(proc *Proc, b []byte, off int64) (int, error) {
	return 0, ErrNotWritable
}

func (r *pipeRead) Size() int64 { return int64(len(r.p.buf)) }
func (r *pipeRead) Ready() bool { return len(r.p.buf) > 0 || r.p.writers == 0 }
func (r *pipeRead) Close(k *Kernel) error {
	r.p.readers--
	return nil
}

func (w *pipeWrite) Read(proc *Proc, n int, off int64) ([]byte, error) {
	return nil, ErrNotReadable
}

func (w *pipeWrite) WriteAt(proc *Proc, b []byte, off int64) (int, error) {
	p := w.p
	written := 0
	for written < len(b) {
		proc.block(func() bool { return len(p.buf) < p.cap || p.readers == 0 })
		if p.readers == 0 {
			// EPIPE: the caller turns this into a signal/errno.
			return written, ErrPipeBroken
		}
		room := p.cap - len(p.buf)
		chunk := len(b) - written
		if chunk > room {
			chunk = room
		}
		p.buf = append(p.buf, b[written:written+chunk]...)
		written += chunk
	}
	return written, nil
}

func (w *pipeWrite) Size() int64 { return int64(len(w.p.buf)) }
func (w *pipeWrite) Ready() bool { return false }
func (w *pipeWrite) Close(k *Kernel) error {
	w.p.writers--
	return nil
}

// Pipe errors.
var (
	ErrNotWritable = errnoError{EBADF, "not writable"}
	ErrNotReadable = errnoError{EBADF, "not readable"}
	ErrPipeBroken  = errnoError{EPIPE, "broken pipe"}
)

// errnoError carries an errno through the FileOps error channel.
type errnoError struct {
	code uint64
	msg  string
}

func (e errnoError) Error() string { return "kernel: " + e.msg }

// errnoOf extracts an errno from an error (EFAULT if unknown).
func errnoOf(err error) uint64 {
	if err == nil {
		return 0
	}
	if ee, ok := err.(errnoError); ok {
		return ee.code
	}
	switch err {
	case ErrNotFound:
		return ENOENT
	case ErrExists:
		return EEXIST
	case ErrIsDir:
		return EISDIR
	case ErrNotDir:
		return ENOTDIR
	case ErrNotEmpty:
		return ENOTEMPTY
	case ErrNoSpace, ErrTooBig:
		return ENOSPC
	case ErrBadName:
		return EINVAL
	}
	return EFAULT
}
