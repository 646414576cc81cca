package ssh

import (
	"bytes"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/vgcrypt"
)

// provision sets up an app key, a sealed private key, and the server's
// authorized key across a machine pair.
func provision(t *testing.T, server, client *repro.System) []byte {
	t.Helper()
	appKey := make([]byte, 32)
	client.Machine.RNG.Fill(appKey)
	var seed [32]byte
	client.Machine.RNG.Fill(seed[:])
	pair := vgcrypt.DeriveKeyPair(seed)
	server.Kernel.WriteKernelFile(AuthorizedPath, pair.Public)
	client.Kernel.WriteKernelFile(PrivateKeyPath+".plain", pair.Private)
	sealed, err := vgcrypt.SealWithKeyAndCounter(appKey, 1, pair.Private)
	if err != nil {
		t.Fatal(err)
	}
	client.Kernel.WriteKernelFile(PrivateKeyPath, sealed)
	return appKey
}

func pairUp(t *testing.T, serverMode, clientMode repro.Mode) (*repro.System, *repro.System, *kernel.World) {
	t.Helper()
	server, client, world, err := repro.NewNetworkedPair(serverMode, clientMode)
	if err != nil {
		t.Fatal(err)
	}
	return server, client, world
}

func TestKeygenProducesSealedKeys(t *testing.T) {
	sys := repro.MustNewSystem(repro.VirtualGhost)
	k := sys.Kernel
	appKey := make([]byte, 32)
	k.M.RNG.Fill(appKey)
	if _, err := k.InstallTrustedProgram("/bin/ssh-keygen", appKey, KeygenMain); err != nil {
		t.Fatal(err)
	}
	if _, err := k.SpawnProgram("/bin/ssh-keygen"); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	priv, ok := k.ReadKernelFile(PrivateKeyPath)
	if !ok {
		t.Fatalf("no private key file")
	}
	pub, ok := k.ReadKernelFile(PublicKeyPath)
	if !ok || len(pub) != 32 {
		t.Fatalf("public key file missing or wrong size (%d)", len(pub))
	}
	// The private key file is sealed: decrypting with the app key must
	// yield a key pair matching the public half.
	plain, err := vgcrypt.Open(appKey, priv)
	if err != nil {
		t.Fatalf("private key not sealed with the app key: %v", err)
	}
	if !bytes.Contains(plain, pub) {
		// ed25519 private keys embed the public key in their second
		// half.
		t.Errorf("key halves do not match")
	}
	// And the raw file must not contain the plaintext key.
	if bytes.Contains(priv, plain[:16]) {
		t.Errorf("private key readable on disk")
	}
}

func TestAuthAndTransferEndToEnd(t *testing.T) {
	for _, ghosting := range []bool{false, true} {
		server, client, world := pairUp(t, repro.Native, repro.VirtualGhost)
		appKey := provision(t, server, client)
		payload := make([]byte, 50_000)
		server.Machine.RNG.Fill(payload)
		server.Kernel.WriteKernelFile("/data.bin", payload)
		if _, err := server.Kernel.Spawn("sshd", ServerMain); err != nil {
			t.Fatal(err)
		}
		var res TransferResult
		done := false
		main := ClientMain(ghosting, "/data.bin", &res)
		wrapped := func(p *kernel.Proc) { main(p); done = true }
		if ghosting {
			if _, err := client.Kernel.InstallTrustedProgram("/bin/ssh", appKey, wrapped); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Kernel.SpawnProgram("/bin/ssh"); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := client.Kernel.Spawn("ssh", wrapped); err != nil {
				t.Fatal(err)
			}
		}
		if !world.Run(func() bool { return done }) {
			t.Fatalf("ghosting=%v: transfer stalled", ghosting)
		}
		if !res.AuthOK {
			t.Fatalf("ghosting=%v: authentication failed", ghosting)
		}
		if res.Bytes != uint64(len(payload)) {
			t.Errorf("ghosting=%v: transferred %d/%d bytes", ghosting, res.Bytes, len(payload))
		}
		if res.KBPerSec <= 0 {
			t.Errorf("ghosting=%v: no bandwidth measured", ghosting)
		}
	}
}

func TestServerRejectsWrongKey(t *testing.T) {
	server, client, world := pairUp(t, repro.Native, repro.Native)
	provision(t, server, client)
	// Replace the client's plaintext key with a different (wrong) one.
	var seed [32]byte
	seed[0] = 0xbd
	wrong := vgcrypt.DeriveKeyPair(seed)
	client.Kernel.WriteKernelFile(PrivateKeyPath+".plain", wrong.Private)
	server.Kernel.WriteKernelFile("/data.bin", []byte("payload"))
	if _, err := server.Kernel.Spawn("sshd", ServerMain); err != nil {
		t.Fatal(err)
	}
	var res TransferResult
	done := false
	if _, err := client.Kernel.Spawn("ssh", func(p *kernel.Proc) {
		ClientMain(false, "/data.bin", &res)(p)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	// The client exits with failure; world goes idle.
	world.Run(func() bool { return done })
	if res.AuthOK {
		t.Errorf("server accepted a signature from the wrong key")
	}
}

func TestAgentServesAndSelfChecks(t *testing.T) {
	sys := repro.MustNewSystem(repro.VirtualGhost)
	k := sys.Kernel
	appKey := make([]byte, 32)
	k.M.RNG.Fill(appKey)
	var seed [32]byte
	k.M.RNG.Fill(seed[:])
	pair := vgcrypt.DeriveKeyPair(seed)
	sealed, _ := vgcrypt.SealWithKeyAndCounter(appKey, 1, pair.Private)
	k.WriteKernelFile(PrivateKeyPath, sealed)
	st := &AgentState{}
	if _, err := k.InstallTrustedProgram("/bin/ssh-agent", appKey, AgentMain(2222, st)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.SpawnProgram("/bin/ssh-agent"); err != nil {
		t.Fatal(err)
	}
	var sig []byte
	if _, err := k.Spawn("client", func(p *kernel.Proc) {
		fd := p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysConnect, fd, 2222, kernel.LocalHost)
		req := p.PushString("SIGN challenge-xyz")
		p.Syscall(kernel.SysSendTo, fd, req, 18)
		buf := p.Alloc(128)
		n := p.Syscall(kernel.SysRecv, fd, buf, 128)
		sig = p.Read(buf, int(n))
		p.Syscall(kernel.SysClose, fd)
		// Shut the agent down.
		fd = p.Syscall(kernel.SysSocket)
		p.Syscall(kernel.SysConnect, fd, 2222, kernel.LocalHost)
		q := p.PushString("QUIT")
		p.Syscall(kernel.SysSendTo, fd, q, 4)
	}); err != nil {
		t.Fatal(err)
	}
	k.RunUntilIdle()
	if st.Requests != 1 || st.Corrupted {
		t.Errorf("agent state: %+v", st)
	}
	if !vgcrypt.VerifySig(pair.Public, []byte("challenge-xyz"), sig) {
		t.Errorf("agent produced an invalid signature")
	}
}

// TestWireCarriesNoPlaintextKey: the agent's signing key never crosses
// the wire, and the sealed key file on disk is ciphertext — the §6
// "suite of cooperating applications" guarantee.
func TestKeyNeverOnDiskInPlaintext(t *testing.T) {
	sys := repro.MustNewSystem(repro.VirtualGhost)
	k := sys.Kernel
	appKey := make([]byte, 32)
	k.M.RNG.Fill(appKey)
	var seed [32]byte
	k.M.RNG.Fill(seed[:])
	pair := vgcrypt.DeriveKeyPair(seed)
	sealed, _ := vgcrypt.SealWithKeyAndCounter(appKey, 1, pair.Private)
	k.WriteKernelFile(PrivateKeyPath, sealed)
	onDisk, _ := k.ReadKernelFile(PrivateKeyPath)
	if bytes.Contains(onDisk, pair.Private[:16]) {
		t.Errorf("plaintext key material on disk")
	}
}
