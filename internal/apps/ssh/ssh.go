// Package ssh is the OpenSSH-derived application suite of paper §6:
// ssh-keygen, ssh-agent, the ssh client (ghosting and original
// variants), and sshd. The three ghosting programs share one
// application key, which protects the private authentication keys at
// rest; the agent additionally keeps a secret string in its ghost heap
// as the rootkit's target.
package ssh

import (
	"crypto/ed25519"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libc"
	"repro/internal/vgcrypt"
)

// File-system locations of the key material.
const (
	PrivateKeyPath = "/root.ssh.id_dsa"     // sealed with the app key
	PublicKeyPath  = "/root.ssh.id_dsa.pub" // plaintext
	AuthorizedPath = "/etc.authorized_keys" // installed on the server
)

// SSHPort is sshd's listening port.
const SSHPort = 22

// transferChunk is the per-read unit of bulk transfers.
//
// Every read in this file checks the count the OS returned against the
// length it asked for before copying that many bytes out. The count is
// the OS's word, and an errno, read as unsigned, is above any length,
// so the one comparison rejects errors and inflated counts alike.
const transferChunk = 32 * 1024

// cryptCost charges the SSH transport cipher for n bytes on p's clock.
func cryptCost(p *kernel.Proc, n int) {
	p.ComputeCrypt(uint64(n) * hw.CostCryptPerByte)
}

// KeygenMain is ssh-keygen: derive an authentication key pair from
// trusted randomness, seal the private half with the application key,
// and write both halves to the file system.
func KeygenMain(p *kernel.Proc) {
	l, err := libc.NewGhosting(p)
	if err != nil {
		p.Exit(1)
	}
	var seed [32]byte
	for i := 0; i < 4; i++ {
		v := l.Rand()
		for j := 0; j < 8; j++ {
			seed[i*8+j] = byte(v >> (8 * j))
		}
	}
	pair := vgcrypt.DeriveKeyPair(seed)
	// The private key lives in ghost memory from the moment it exists.
	priv, err := l.Malloc(len(pair.Private))
	if err != nil {
		p.Exit(1)
	}
	l.WriteGhost(priv, pair.Private)
	if err := l.SecureWriteFile(PrivateKeyPath, priv, len(pair.Private)); err != nil {
		p.Exit(1)
	}
	// The public key is not secret.
	fd, err := l.Open(PublicKeyPath, kernel.OCreat|kernel.ORdWr|kernel.OTrunc)
	if err != nil {
		p.Exit(1)
	}
	buf := p.Alloc(len(pair.Public))
	p.Write(buf, pair.Public)
	p.Syscall(kernel.SysWrite, uint64(fd), buf, uint64(len(pair.Public)))
	l.Close(fd)
	p.Exit(0)
}

// AgentState is the observable state of a running ssh-agent, published
// for the attack experiments (which need the victim's pid and the ghost
// address of its secret).
type AgentState struct {
	PID        int
	SecretAddr uint64
	KeyAddr    uint64
	Ready      bool
	Requests   int
	Corrupted  bool
}

// AgentSecret is the in-memory secret the rootkit hunts for (paper §6:
// "we added code to place a secret string within a heap-allocated
// memory buffer").
const AgentSecret = "agent-held-private-key-0xDEADBEEF-do-not-exfiltrate"

// AgentMain is ssh-agent: it loads the sealed private authentication
// key into its ghost heap, stores the secret marker string, and serves
// signing requests on a local socket until told to quit.
func AgentMain(port uint16, st *AgentState) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		l, err := libc.NewGhosting(p)
		if err != nil {
			p.Exit(1)
		}
		keyPtr, keyLen, err := l.SecureReadFile(PrivateKeyPath)
		if err != nil {
			p.Exit(1)
		}
		secret, err := l.Malloc(len(AgentSecret))
		if err != nil {
			p.Exit(1)
		}
		l.WriteGhost(secret, []byte(AgentSecret))
		st.PID = p.PID
		st.SecretAddr = uint64(secret)
		st.KeyAddr = uint64(keyPtr)
		st.Ready = true

		sfd := p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysBind, sfd, uint64(port))
		p.Syscall(kernel.SysListen, sfd)
		reqBuf := p.Alloc(256)
		for {
			cfd := p.Syscall(kernel.SysAccept, sfd)
			if _, bad := kernel.IsErr(cfd); bad {
				break
			}
			// The agent reads requests with read(2) — the syscall the
			// rootkit interposes on (paper §7: the malicious module
			// "executes the attack as the victim process reads data
			// from a file descriptor").
			n := p.Syscall(kernel.SysRead, cfd, reqBuf, 256)
			if n > 256 {
				p.Syscall(kernel.SysClose, cfd)
				continue
			}
			req := string(p.Read(reqBuf, int(n)))
			if strings.HasPrefix(req, "QUIT") {
				p.Syscall(kernel.SysClose, cfd)
				break
			}
			if strings.HasPrefix(req, "SIGN ") {
				st.Requests++
				challenge := []byte(strings.TrimPrefix(req, "SIGN "))
				privBytes := l.ReadGhost(libc.GPtr(keyPtr), keyLen)
				sig := ed25519.Sign(ed25519.PrivateKey(privBytes), challenge)
				out := p.Alloc(len(sig))
				p.Write(out, sig)
				p.Syscall(kernel.SysSendTo, cfd, out, uint64(len(sig)))
			}
			// Integrity self-check: has anything scribbled on the
			// secret?
			if string(l.ReadGhost(secret, len(AgentSecret))) != AgentSecret {
				st.Corrupted = true
			}
			p.Syscall(kernel.SysClose, cfd)
		}
		p.Exit(0)
	}
}

// --- sshd -------------------------------------------------------------------

// ServerMain is sshd: accept a connection, issue a challenge, verify
// the client's signature against the installed authorized key, then
// serve "CAT <path>" requests by streaming the (transport-encrypted)
// file. A QUIT connection shuts it down.
func ServerMain(p *kernel.Proc) {
	// Load the authorized public key.
	authPtr := p.PushString(AuthorizedPath)
	afd := p.Syscall(kernel.SysOpen, authPtr, kernel.ORdOnly)
	var authorized []byte
	if _, bad := kernel.IsErr(afd); !bad {
		tmp := p.Alloc(64)
		if n := p.Syscall(kernel.SysRead, afd, tmp, 64); n <= 64 {
			authorized = p.Read(tmp, int(n))
		}
		p.Syscall(kernel.SysClose, afd)
	}
	sfd := p.Syscall(kernel.SysSocket)
	p.Syscall(kernel.SysBind, sfd, SSHPort)
	p.Syscall(kernel.SysListen, sfd)
	buf := p.Alloc(transferChunk)
	for {
		cfd := p.Syscall(kernel.SysAccept, sfd)
		if _, bad := kernel.IsErr(cfd); bad {
			break
		}
		if !serveSession(p, cfd, buf, authorized) {
			p.Syscall(kernel.SysClose, cfd)
			break
		}
		p.Syscall(kernel.SysClose, cfd)
	}
	p.Exit(0)
}

// serveSession handles one connection; it returns false on QUIT.
func serveSession(p *kernel.Proc, cfd uint64, buf uint64, authorized []byte) bool {
	// Challenge/response authentication.
	challenge := fmt.Sprintf("challenge-%d", p.Kernel().M.RNG.Next())
	ch := p.PushString(challenge)
	p.Syscall(kernel.SysSendTo, cfd, ch, uint64(len(challenge)))
	n := p.Syscall(kernel.SysRecv, cfd, buf, transferChunk)
	if n == 0 || n > transferChunk {
		return true
	}
	resp := p.Read(buf, int(n))
	if len(resp) < ed25519.SignatureSize {
		return string(resp) != "QUIT"
	}
	sig := resp[:ed25519.SignatureSize]
	if len(authorized) == ed25519.PublicKeySize &&
		!vgcrypt.VerifySig(authorized, []byte(challenge), sig) {
		deny := p.PushString("DENIED")
		p.Syscall(kernel.SysSendTo, cfd, deny, 6)
		return true
	}
	ok := p.PushString("OK")
	p.Syscall(kernel.SysSendTo, cfd, ok, 2)
	// Command phase.
	n = p.Syscall(kernel.SysRecv, cfd, buf, transferChunk)
	if n > transferChunk {
		return true
	}
	cmd := string(p.Read(buf, int(n)))
	if strings.HasPrefix(cmd, "QUIT") {
		return false
	}
	if strings.HasPrefix(cmd, "CAT ") {
		streamFile(p, cfd, buf, strings.TrimSpace(strings.TrimPrefix(cmd, "CAT ")))
	}
	return true
}

// streamFile cats a file over the encrypted transport.
func streamFile(p *kernel.Proc, cfd uint64, buf uint64, path string) {
	pp := p.PushString(path)
	statBuf := p.Alloc(16)
	if ret := p.Syscall(kernel.SysStat, pp, statBuf); ret != 0 {
		hdr := p.PushString("ERR 0\n")
		p.Syscall(kernel.SysSendTo, cfd, hdr, 6)
		return
	}
	size := p.Load(statBuf, 8)
	hdr := fmt.Sprintf("LEN %d\n", size)
	hp := p.PushString(hdr)
	p.Syscall(kernel.SysSendTo, cfd, hp, uint64(len(hdr)))
	fd := p.Syscall(kernel.SysOpen, pp, kernel.ORdOnly)
	for {
		n := p.Syscall(kernel.SysRead, fd, buf, transferChunk)
		if _, bad := kernel.IsErr(n); bad || n == 0 {
			break
		}
		cryptCost(p, int(n)) // transport encryption
		p.Syscall(kernel.SysSendTo, cfd, buf, n)
	}
	p.Syscall(kernel.SysClose, fd)
}

// --- ssh client ---------------------------------------------------------------

// TransferResult reports one client download.
type TransferResult struct {
	Bytes    uint64
	Seconds  float64
	KBPerSec float64
	AuthOK   bool
}

// ClientMain is the ssh client downloading path from sshd ("ssh host
// cat file"). When ghosting is true the client keeps the decrypted
// authentication key and all received data in ghost memory (the §6
// port); otherwise it is the original client using traditional memory.
// Both variants pay the transport cipher; only the ghosting variant
// pays the ghost/staging copies.
func ClientMain(ghosting bool, path string, out *TransferResult) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		var l *libc.Libc
		var err error
		if ghosting {
			l, err = libc.NewGhosting(p)
			if err != nil {
				p.Exit(1)
			}
		}
		// Load the private authentication key.
		var priv ed25519.PrivateKey
		if ghosting {
			kp, klen, err := l.SecureReadFile(PrivateKeyPath)
			if err != nil {
				p.Exit(1)
			}
			priv = ed25519.PrivateKey(l.ReadGhost(kp, klen))
		} else {
			// The original client reads the (plaintext) key file
			// directly; in the experiments the non-ghosting client is
			// given an unsealed key file.
			pp := p.PushString(PrivateKeyPath + ".plain")
			fd := p.Syscall(kernel.SysOpen, pp, kernel.ORdOnly)
			if _, bad := kernel.IsErr(fd); !bad {
				tmp := p.Alloc(128)
				if n := p.Syscall(kernel.SysRead, fd, tmp, 128); n <= 128 {
					priv = ed25519.PrivateKey(p.Read(tmp, int(n)))
				}
				p.Syscall(kernel.SysClose, fd)
			}
		}
		fd := p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysConnect, fd, SSHPort, kernel.RemoteHost)
		buf := p.Alloc(transferChunk)
		// Receive the challenge, sign it, send the signature.
		n := p.Syscall(kernel.SysRecv, fd, buf, transferChunk)
		if n > transferChunk {
			p.Exit(1)
		}
		challenge := p.Read(buf, int(n))
		if len(priv) != ed25519.PrivateKeySize {
			p.Exit(1)
		}
		sig := ed25519.Sign(priv, challenge)
		sp := p.Alloc(len(sig))
		p.Write(sp, sig)
		p.Syscall(kernel.SysSendTo, fd, sp, uint64(len(sig)))
		n = p.Syscall(kernel.SysRecv, fd, buf, transferChunk)
		if n > transferChunk || string(p.Read(buf, int(n))) != "OK" {
			p.Exit(1)
		}
		out.AuthOK = true
		download(p, l, fd, buf, path, out)
	}
}

// download requests path over the authenticated connection fd, streams
// it down through the receive buffer buf, records the transfer in out
// and closes fd. With a ghosting libc l (the §6 port) each chunk is
// copied into the ghost heap; l is nil for a client that keeps
// received data in traditional memory.
func download(p *kernel.Proc, l *libc.Libc, fd, buf uint64, path string, out *TransferResult) {
	cmd := p.PushString("CAT " + path)
	p.Syscall(kernel.SysSendTo, fd, cmd, uint64(len("CAT "+path)))
	start := p.Kernel().M.Clock.Cycles()
	var ghostBuf libc.GPtr
	if l != nil {
		var err error
		if ghostBuf, err = l.Malloc(transferChunk); err != nil {
			p.Exit(1)
		}
	}
	var want, got uint64
	headerDone := false
	for {
		n := p.Syscall(kernel.SysRecv, fd, buf, transferChunk)
		if n == 0 || n > transferChunk {
			break
		}
		data := p.Read(buf, int(n))
		if !headerDone {
			nl := strings.IndexByte(string(data), '\n')
			if nl < 0 {
				break
			}
			fields := strings.Fields(string(data[:nl]))
			if len(fields) != 2 || fields[0] != "LEN" {
				break
			}
			want, _ = strconv.ParseUint(fields[1], 10, 64)
			data = data[nl+1:]
			headerDone = true
		}
		cryptCost(p, len(data)) // transport decryption
		if l != nil {
			// Copy each chunk from the traditional receive buffer into
			// the ghost heap.
			l.WriteGhost(ghostBuf, data)
		}
		got += uint64(len(data))
		if got >= want {
			break
		}
	}
	cycles := p.Kernel().M.Clock.Cycles() - start
	out.Bytes = got
	out.Seconds = float64(cycles) / 3.4e9
	if out.Seconds > 0 {
		out.KBPerSec = float64(got) / 1024 / out.Seconds
	}
	p.Syscall(kernel.SysClose, fd)
}

// StopServer connects and QUITs sshd.
func StopServer(p *kernel.Proc) {
	fd := p.Syscall(kernel.SysSocket)
	p.Syscall(kernel.SysConnect, fd, SSHPort, kernel.RemoteHost)
	buf := p.Alloc(transferChunk)
	// Absorb the challenge, then send QUIT in the auth slot.
	p.Syscall(kernel.SysRecv, fd, buf, transferChunk)
	q := p.PushString("QUIT")
	p.Syscall(kernel.SysSendTo, fd, q, 4)
	p.Syscall(kernel.SysClose, fd)
}

// ClientViaAgent is the ssh client authenticating through a local
// ssh-agent instead of reading the key file itself — the other §6 data
// flow ("the ssh-agent server stores private encryption keys which the
// ssh client may use for public/private key authentication"). The
// private key never enters this process at all.
func ClientViaAgent(agentPort uint16, path string, out *TransferResult) func(p *kernel.Proc) {
	return func(p *kernel.Proc) {
		fd := p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysConnect, fd, SSHPort, kernel.RemoteHost)
		buf := p.Alloc(transferChunk)
		// Receive the challenge and forward it to the agent for
		// signing over the local socket.
		n := p.Syscall(kernel.SysRecv, fd, buf, transferChunk)
		if n > transferChunk {
			return
		}
		challenge := p.Read(buf, int(n))
		afd := p.Syscall(kernel.SysSocket)
		if ret := p.Syscall(kernel.SysConnect, afd, uint64(agentPort), kernel.LocalHost); ret != 0 {
			return
		}
		req := p.PushString("SIGN " + string(challenge))
		p.Syscall(kernel.SysSendTo, afd, req, uint64(5+len(challenge)))
		an := p.Syscall(kernel.SysRecv, afd, buf, transferChunk)
		var sig []byte
		if an <= transferChunk {
			sig = p.Read(buf, int(an))
		}
		p.Syscall(kernel.SysClose, afd)
		if len(sig) != ed25519.SignatureSize {
			return
		}
		sp := p.Alloc(len(sig))
		p.Write(sp, sig)
		p.Syscall(kernel.SysSendTo, fd, sp, uint64(len(sig)))
		n = p.Syscall(kernel.SysRecv, fd, buf, transferChunk)
		if n > transferChunk || string(p.Read(buf, int(n))) != "OK" {
			return
		}
		out.AuthOK = true
		download(p, nil, fd, buf, path, out)
	}
}
