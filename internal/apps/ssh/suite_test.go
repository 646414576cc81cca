package ssh

import (
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/vgcrypt"
)

// TestSection6Suite runs the paper's §6 scenario end to end on a
// Virtual Ghost machine pair:
//
//  1. ssh-keygen (ghosting, signed, holding the shared application
//     key) generates an authentication key pair, sealing the private
//     half on disk;
//  2. the public half is installed on the remote server's
//     authorized_keys;
//  3. the ghosting ssh client — a *different process* sharing the same
//     application key — unseals the private key into ghost memory and
//     authenticates to sshd;
//  4. nothing the OS can see (disk files, wire traffic) contains the
//     private key.
func TestSection6Suite(t *testing.T) {
	server, client, world := pairUp(t, repro.Native, repro.VirtualGhost)

	// One application key shared by the whole suite (installed into
	// each signed binary by the trusted installer).
	appKey := make([]byte, 32)
	client.Machine.RNG.Fill(appKey)

	// Step 1: ssh-keygen.
	if _, err := client.Kernel.InstallTrustedProgram("/bin/ssh-keygen", appKey, KeygenMain); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Kernel.SpawnProgram("/bin/ssh-keygen"); err != nil {
		t.Fatal(err)
	}
	client.Kernel.RunUntilIdle()
	pub, ok := client.Kernel.ReadKernelFile(PublicKeyPath)
	if !ok || len(pub) != 32 {
		t.Fatalf("keygen produced no public key")
	}
	sealedPriv, ok := client.Kernel.ReadKernelFile(PrivateKeyPath)
	if !ok {
		t.Fatalf("keygen produced no private key file")
	}
	// The OS's view of the private key is ciphertext: unsealing with
	// the right key works, and the plaintext is NOT a substring.
	plainPriv, err := vgcrypt.Open(appKey, sealedPriv)
	if err != nil {
		t.Fatalf("private key not sealed with the suite's app key: %v", err)
	}
	if containsSub(sealedPriv, plainPriv[:16]) {
		t.Fatalf("plaintext key material visible on disk")
	}

	// Step 2: install the public key on the server.
	server.Kernel.WriteKernelFile(AuthorizedPath, pub)
	payload := make([]byte, 30_000)
	server.Machine.RNG.Fill(payload)
	server.Kernel.WriteKernelFile("/pull.bin", payload)
	if _, err := server.Kernel.Spawn("sshd", ServerMain); err != nil {
		t.Fatal(err)
	}

	// Step 3: the ghosting ssh client authenticates with the key
	// ssh-keygen made.
	var res TransferResult
	done := false
	main := ClientMain(true, "/pull.bin", &res)
	if _, err := client.Kernel.InstallTrustedProgram("/bin/ssh", appKey, func(p *kernel.Proc) {
		main(p)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Kernel.SpawnProgram("/bin/ssh"); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done }) {
		t.Fatalf("suite transfer stalled")
	}
	if !res.AuthOK {
		t.Fatalf("cross-program key sharing failed: auth rejected")
	}
	if res.Bytes != uint64(len(payload)) {
		t.Errorf("transferred %d/%d", res.Bytes, len(payload))
	}

	// Step 4: the wire never carried the private key (the signature is
	// derived, not the key itself).
	for _, pkt := range server.Machine.NIC.Snoop() {
		if containsSub(pkt.Payload, plainPriv[:16]) {
			t.Fatalf("private key crossed the wire")
		}
	}
}

func containsSub(haystack, needle []byte) bool {
	if len(needle) == 0 || len(haystack) < len(needle) {
		return false
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// TestClientAuthViaAgent: the ssh client authenticates with a signature
// produced by the local ssh-agent; the private key never leaves the
// agent's ghost heap.
func TestClientAuthViaAgent(t *testing.T) {
	server, client, world := pairUp(t, repro.Native, repro.VirtualGhost)

	appKey := make([]byte, 32)
	client.Machine.RNG.Fill(appKey)
	var seed [32]byte
	client.Machine.RNG.Fill(seed[:])
	pair := vgcrypt.DeriveKeyPair(seed)
	sealed, err := vgcrypt.SealWithKeyAndCounter(appKey, 1, pair.Private)
	if err != nil {
		t.Fatal(err)
	}
	client.Kernel.WriteKernelFile(PrivateKeyPath, sealed)
	server.Kernel.WriteKernelFile(AuthorizedPath, pair.Public)
	payload := make([]byte, 20_000)
	server.Machine.RNG.Fill(payload)
	server.Kernel.WriteKernelFile("/agented.bin", payload)

	const agentPort = 2222
	st := &AgentState{}
	if _, err := client.Kernel.InstallTrustedProgram("/bin/ssh-agent", appKey, AgentMain(agentPort, st)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Kernel.SpawnProgram("/bin/ssh-agent"); err != nil {
		t.Fatal(err)
	}
	if !client.Kernel.RunUntil(func() bool { return st.Ready }) {
		t.Fatal("agent never ready")
	}
	if _, err := server.Kernel.Spawn("sshd", ServerMain); err != nil {
		t.Fatal(err)
	}
	var res TransferResult
	done := false
	if _, err := client.Kernel.Spawn("ssh", func(p *kernel.Proc) {
		ClientViaAgent(agentPort, "/agented.bin", &res)(p)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done }) {
		t.Fatalf("agent-backed transfer stalled")
	}
	if !res.AuthOK || res.Bytes != uint64(len(payload)) {
		t.Errorf("agent-backed auth: ok=%v bytes=%d", res.AuthOK, res.Bytes)
	}
	if st.Requests != 1 {
		t.Errorf("agent served %d requests", st.Requests)
	}
}
