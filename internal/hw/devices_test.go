package hw

import (
	"bytes"
	"testing"
)

func TestDiskRoundTrip(t *testing.T) {
	d := NewDisk(&Clock{}, 64)
	data := make([]byte, BlockSize)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := d.WriteBlock(7, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBlock(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip mismatch")
	}
}

func TestDiskBounds(t *testing.T) {
	d := NewDisk(&Clock{}, 4)
	if _, err := d.ReadBlock(4); err == nil {
		t.Errorf("read past end accepted")
	}
	if err := d.WriteBlock(-1, nil); err == nil {
		t.Errorf("negative block accepted")
	}
	if err := d.WriteBlock(0, make([]byte, BlockSize+1)); err == nil {
		t.Errorf("oversized write accepted")
	}
}

func TestDiskChargesTime(t *testing.T) {
	clk := &Clock{}
	d := NewDisk(clk, 8)
	before := clk.Cycles()
	_, _ = d.ReadBlock(1)
	if clk.Cycles() == before {
		t.Errorf("disk read charged no time")
	}
}

func TestDiskPeekPokeChargeNothing(t *testing.T) {
	clk := &Clock{}
	d := NewDisk(clk, 8)
	d.PokeBlock(2, []byte{9, 9})
	before := clk.Cycles()
	b := d.PeekBlock(2)
	if clk.Cycles() != before {
		t.Errorf("peek charged time")
	}
	if b[0] != 9 || b[1] != 9 {
		t.Errorf("poke/peek mismatch")
	}
}

func TestNICDelivery(t *testing.T) {
	clk := &Clock{}
	a, b := NewNIC(clk), NewNIC(clk)
	Connect(a, b)
	a.Send(Packet{Port: 80, Payload: []byte("hello")})
	pkt, ok := b.Receive(80)
	if !ok || string(pkt.Payload) != "hello" {
		t.Fatalf("receive = %v %q", ok, pkt.Payload)
	}
	if _, ok := b.Receive(80); ok {
		t.Errorf("packet delivered twice")
	}
}

func TestNICPortDemux(t *testing.T) {
	clk := &Clock{}
	a, b := NewNIC(clk), NewNIC(clk)
	Connect(a, b)
	a.Send(Packet{Port: 1, Payload: []byte("one")})
	a.Send(Packet{Port: 2, Payload: []byte("two")})
	if p, ok := b.Receive(2); !ok || string(p.Payload) != "two" {
		t.Errorf("port 2 demux failed")
	}
	if b.Pending(1) != 1 {
		t.Errorf("port 1 pending = %d", b.Pending(1))
	}
}

func TestNICUnconnectedDrops(t *testing.T) {
	n := NewNIC(&Clock{})
	n.Send(Packet{Port: 9, Payload: []byte("x")})
	_, _, dropped := n.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
}

func TestNICSerializationCost(t *testing.T) {
	clk := &Clock{}
	a, b := NewNIC(clk), NewNIC(clk)
	Connect(a, b)
	before := clk.Cycles()
	a.Send(Packet{Port: 1, Payload: make([]byte, 1000)})
	small := clk.Cycles() - before
	before = clk.Cycles()
	a.Send(Packet{Port: 1, Payload: make([]byte, 1)})
	tiny := clk.Cycles() - before
	if small <= tiny {
		t.Errorf("larger payload should cost more wire time (%d vs %d)", small, tiny)
	}
}

func TestNICSnoopExposesTraffic(t *testing.T) {
	clk := &Clock{}
	a, b := NewNIC(clk), NewNIC(clk)
	Connect(a, b)
	a.Send(Packet{Port: 5, Payload: []byte("plaintext-secret")})
	snooped := b.Snoop()
	if len(snooped) != 1 || string(snooped[0].Payload) != "plaintext-secret" {
		t.Fatalf("snoop failed: %v", snooped)
	}
	// Snooping must not consume the packet.
	if b.Pending(5) != 1 {
		t.Errorf("snoop consumed the packet")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 10; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Next() == 0 && r.Next() == 0 {
		t.Errorf("zero seed stuck at zero")
	}
}

func TestTPMKeyStability(t *testing.T) {
	r := NewRNG(3)
	tpm := NewTPM(r)
	k1 := tpm.StorageKey()
	k2 := tpm.StorageKey()
	if k1 != k2 {
		t.Errorf("storage key changed between reads")
	}
	var zero [32]byte
	if k1 == zero {
		t.Errorf("storage key is all zeros")
	}
}

func TestConsoleContains(t *testing.T) {
	c := &Console{}
	c.Printf("boot: %s", "ok")
	c.Printf("secret=%s", "hunter2")
	if !c.Contains("hunter2") || c.Contains("hunter3") {
		t.Errorf("Contains misbehaves")
	}
	if len(c.Lines()) != 2 {
		t.Errorf("lines = %d", len(c.Lines()))
	}
}

func TestTimerFires(t *testing.T) {
	clk := &Clock{}
	tm := NewTimer(clk, 100)
	if tm.Fired() {
		t.Errorf("fired immediately")
	}
	clk.Charge(TagOther, 101)
	if !tm.Fired() {
		t.Errorf("did not fire after interval")
	}
	if tm.Fired() {
		t.Errorf("fired twice without advancing")
	}
}

func TestPortBusRouting(t *testing.T) {
	bus := NewPortBus()
	io := NewIOMMU()
	bus.Register(IOMMUPortFrame, 2, io)
	bus.Out(IOMMUPortFrame, 5)
	bus.Out(IOMMUPortCmd, IOMMUCmdAllow)
	if !io.Allowed(Frame(5)) {
		t.Errorf("IOMMU programming via ports failed")
	}
	if bus.In(0x9999) != ^uint64(0) {
		t.Errorf("unclaimed port should read all-ones")
	}
}

func TestIOMMUGatesDMA(t *testing.T) {
	clk := &Clock{}
	mem := NewMemory(16, clk)
	io := NewIOMMU()
	dma := NewDMAEngine(mem, io, clk)
	f, _ := mem.AllocFrame(FrameUserData)
	if _, err := dma.CopyFromFrame(f); err == nil {
		t.Fatalf("DMA to unlisted frame allowed")
	}
	io.Allow(f)
	if _, err := dma.CopyFromFrame(f); err != nil {
		t.Fatalf("DMA to allowed frame refused: %v", err)
	}
	io.Revoke(f)
	if err := dma.CopyToFrame(f, []byte{1}); err == nil {
		t.Fatalf("DMA after revoke allowed")
	}
}

func TestDMACopies(t *testing.T) {
	clk := &Clock{}
	mem := NewMemory(16, clk)
	io := NewIOMMU()
	dma := NewDMAEngine(mem, io, clk)
	f, _ := mem.AllocFrame(FrameUserData)
	io.Allow(f)
	src := make([]byte, PageSize)
	src[0], src[4095] = 0xaa, 0xbb
	if err := dma.CopyToFrame(f, src); err != nil {
		t.Fatal(err)
	}
	out, err := dma.CopyFromFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xaa || out[4095] != 0xbb {
		t.Errorf("DMA round trip lost data")
	}
}

func TestClockConversions(t *testing.T) {
	if Micros(3_400_000) != 1000 {
		t.Errorf("3.4M cycles should be 1000us, got %v", Micros(3_400_000))
	}
	c := &Clock{}
	c.ChargeBytes(TagOther, 16, 2)
	if c.Cycles() != 4 { // 2 words * 2
		t.Errorf("ChargeBytes = %d", c.Cycles())
	}
}

func TestCPUTrapSavesAndRestores(t *testing.T) {
	m := NewMemory(64, &Clock{})
	u := NewMMU(m, &Clock{})
	cpu := NewCPU(u, &Clock{})
	cpu.Regs.GPR[RAX] = 111
	cpu.Regs.GPR[RDI] = 222
	cpu.Regs.Priv = User
	var seen *TrapFrame
	cpu.SetTrapHandler(func(tf *TrapFrame) {
		seen = tf
		if cpu.Regs.Priv != Supervisor {
			t.Errorf("not in supervisor mode during trap")
		}
		tf.Regs.GPR[RAX] = 999 // syscall return value
		cpu.ReturnFromTrap(tf)
	})
	cpu.Trap(TrapSyscall, 1)
	if seen == nil || seen.Regs.GPR[RDI] != 222 {
		t.Fatalf("trap frame missing register state")
	}
	if cpu.Regs.GPR[RAX] != 999 || cpu.Regs.Priv != User {
		t.Errorf("return-from-trap did not restore/patch state")
	}
}

func TestCPUISTRedirectsStack(t *testing.T) {
	m := NewMemory(64, &Clock{})
	u := NewMMU(m, &Clock{})
	cpu := NewCPU(u, &Clock{})
	cpu.ISTTarget = 0xdead0000
	cpu.SetTrapHandler(func(tf *TrapFrame) {
		if cpu.Regs.RSP != 0xdead0000 {
			t.Errorf("IST did not switch the stack: rsp=%#x", cpu.Regs.RSP)
		}
		cpu.ReturnFromTrap(tf)
	})
	cpu.Regs.RSP = 0x1000
	cpu.Trap(TrapTimer, 0)
	if cpu.Regs.RSP != 0x1000 {
		t.Errorf("user stack not restored")
	}
}

func TestRegFileZeroKeepsSyscallArgs(t *testing.T) {
	var r RegFile
	for i := Reg(0); i < NumRegs; i++ {
		r.GPR[i] = uint64(i) + 1
	}
	r.Zero(true)
	for _, keep := range []Reg{RAX, RDI, RSI, RDX, RCX, R8, R9} {
		if r.GPR[keep] == 0 {
			t.Errorf("syscall arg register %v zeroed", keep)
		}
	}
	for _, gone := range []Reg{RBX, RBP, R10, R11, R12, R13, R14, R15} {
		if r.GPR[gone] != 0 {
			t.Errorf("register %v not zeroed", gone)
		}
	}
	r.Zero(false)
	for i := Reg(0); i < NumRegs; i++ {
		if r.GPR[i] != 0 {
			t.Errorf("register %v survived full zero", i)
		}
	}
}
