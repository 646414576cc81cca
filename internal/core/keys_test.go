package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/hw"
)

// verifiedHolds reports whether the VM's verified-binary table holds a
// binary's current (digest, signature) pair.
func verifiedHolds(vm *VM, b *Binary) bool {
	v := vm.keys.verified
	return v.digest == b.digest() && bytes.Equal(v.sig[:], b.Signature)
}

// TestVerifiedBinaryRefusalsNeverEnter: a binary that fails
// verification leaves the table empty, whether its signature is another
// binary's or garbage, and a passing one fills it.
func TestVerifiedBinaryRefusalsNeverEnter(t *testing.T) {
	vm, _ := newVM(t)
	key := make([]byte, 32)
	bin, _ := vm.Installer().Install("/bin/app", []byte("code"), key)
	other, _ := vm.Installer().Install("/bin/other", []byte("other code"), key)
	for _, forged := range []*Binary{
		{Name: bin.Name, Image: []byte("evil"), KeySection: bin.KeySection, Signature: bin.Signature},
		{Name: bin.Name, Image: bin.Image, KeySection: bin.KeySection, Signature: other.Signature},
		{Name: bin.Name, Image: bin.Image, KeySection: bin.KeySection, Signature: make([]byte, len(bin.Signature))},
	} {
		if err := vm.LoadBinary(5, forged); !errors.Is(err, ErrBadBinary) {
			t.Fatalf("forged binary accepted: %v", err)
		}
	}
	if vm.keys.verified != (verifiedBinary{}) {
		t.Errorf("table filled by refusals alone")
	}
	if err := vm.LoadBinary(5, bin); err != nil {
		t.Fatal(err)
	}
	if !verifiedHolds(vm, bin) {
		t.Errorf("verified binary missing from the table")
	}
}

// TestVerifiedBinaryChargesLikeMiss: a load served by the table
// charges exactly what the cold load that filled it charged, tag by
// tag.
func TestVerifiedBinaryChargesLikeMiss(t *testing.T) {
	vm, m := newVM(t)
	bin, _ := vm.Installer().Install("/bin/app", []byte("code"), make([]byte, 32))
	load := func() hw.Ledger {
		before := m.Clock.Ledger()
		if err := vm.LoadBinary(5, bin); err != nil {
			t.Fatal(err)
		}
		after := m.Clock.Ledger()
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	if verifiedHolds(vm, bin) {
		t.Fatal("table warm before the first load")
	}
	cold := load()
	if !verifiedHolds(vm, bin) {
		t.Fatal("first load left the table cold")
	}
	if warm := load(); warm != cold {
		t.Errorf("warm load charged %v, cold load %v", warm, cold)
	}
	if cold.Total() == 0 {
		t.Errorf("LoadBinary charged nothing")
	}
}

// TestVerifiedBinaryReplaceAndKeyChains: two binaries loaded in turn
// each replace the other in the table and both still load, and a binary
// verified on one machine is refused by a machine with another TPM key.
func TestVerifiedBinaryReplaceAndKeyChains(t *testing.T) {
	vm, _ := newVM(t)
	key := make([]byte, 32)
	a, _ := vm.Installer().Install("/bin/a", []byte("code a"), key)
	b, _ := vm.Installer().Install("/bin/b", []byte("code b"), key)
	for round := 0; round < 2; round++ {
		for _, bin := range []*Binary{a, b} {
			if err := vm.LoadBinary(5, bin); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !verifiedHolds(vm, bin) {
				t.Errorf("round %d: %s not in the table after it loaded", round, bin.Name)
			}
		}
	}

	m2 := hw.NewMachine(hw.MachineConfig{MemFrames: 256, DiskBlocks: 16, Seed: 2})
	vm2, err := NewVM(m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm2.LoadBinary(5, b); !errors.Is(err, ErrBadBinary) {
		t.Errorf("binary signed on another machine accepted: %v", err)
	}
}

// BenchmarkLoadBinary times LoadBinary served by the verified-binary
// table (hit) and with the table emptied before every load, so each one
// verifies a signature the table has never seen (miss).
func BenchmarkLoadBinary(b *testing.B) {
	m := hw.NewMachine(hw.MachineConfig{MemFrames: 256, DiskBlocks: 16, Seed: 1})
	vm, err := NewVM(m)
	if err != nil {
		b.Fatal(err)
	}
	bin, err := vm.Installer().Install("/bin/true", []byte("image:/bin/true"), make([]byte, 32))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := vm.LoadBinary(5, bin); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm.keys.verified = verifiedBinary{}
			if err := vm.LoadBinary(5, bin); err != nil {
				b.Fatal(err)
			}
		}
	})
}
