package hw

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newTestMem(t *testing.T, frames int) *Memory {
	t.Helper()
	return NewMemory(frames, &Clock{})
}

func TestFrameAllocFree(t *testing.T) {
	m := newTestMem(t, 16)
	if m.FreeFrames() != 15 { // frame 0 reserved
		t.Fatalf("free frames = %d, want 15", m.FreeFrames())
	}
	f, err := m.AllocFrame(FrameUserData)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if m.TypeOf(f) != FrameUserData {
		t.Errorf("type = %v", m.TypeOf(f))
	}
	if err := m.FreeFrame(f); err != nil {
		t.Fatalf("free: %v", err)
	}
	if m.TypeOf(f) != FrameFree {
		t.Errorf("freed frame type = %v", m.TypeOf(f))
	}
}

func TestFrameDoubleFree(t *testing.T) {
	m := newTestMem(t, 16)
	f, _ := m.AllocFrame(FrameKernelData)
	if err := m.FreeFrame(f); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if err := m.FreeFrame(f); err == nil {
		t.Errorf("double free accepted")
	}
}

func TestFreeWithLiveMappingsRefused(t *testing.T) {
	m := newTestMem(t, 16)
	f, _ := m.AllocFrame(FrameUserData)
	m.AddRef(f)
	if err := m.FreeFrame(f); err == nil {
		t.Errorf("freed a frame with live mappings")
	}
	m.DropRef(f)
	if err := m.FreeFrame(f); err != nil {
		t.Errorf("free after unref: %v", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	m := newTestMem(t, 4) // frames 1..3 allocatable
	for i := 0; i < 3; i++ {
		if _, err := m.AllocFrame(FrameUserData); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := m.AllocFrame(FrameUserData); err != ErrOutOfMemory {
		t.Errorf("want ErrOutOfMemory, got %v", err)
	}
}

func TestPhysReadWrite(t *testing.T) {
	m := newTestMem(t, 16)
	f, _ := m.AllocFrame(FrameKernelData)
	p := f.Addr() + 100
	data := []byte{1, 2, 3, 4, 5}
	if err := m.WritePhys(p, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := m.ReadPhys(p, 5)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %v", got)
	}
}

func TestPhysBounds(t *testing.T) {
	m := newTestMem(t, 4)
	if _, err := m.ReadPhys(Phys(4*PageSize), 8); err == nil {
		t.Errorf("read past end accepted")
	}
	if err := m.WritePhys(Phys(0), []byte{1}); err == nil {
		t.Errorf("write to reserved frame 0 accepted")
	}
	if _, err := m.ReadPhys(Phys(4*PageSize-4), 8); err == nil {
		t.Errorf("straddling read accepted")
	}
}

func TestRead64Write64RoundTrip(t *testing.T) {
	m := newTestMem(t, 8)
	f, _ := m.AllocFrame(FrameKernelData)
	fn := func(off uint16, v uint64) bool {
		p := f.Addr() + Phys(off%(PageSize-8))
		if err := m.Write64(p, v); err != nil {
			return false
		}
		got, err := m.Read64(p)
		return err == nil && got == v
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroFrame(t *testing.T) {
	m := newTestMem(t, 8)
	f, _ := m.AllocFrame(FrameUserData)
	if err := m.WritePhys(f.Addr(), []byte{0xff, 0xfe}); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroFrame(f); err != nil {
		t.Fatal(err)
	}
	b, _ := m.FrameBytes(f)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %#x after zero", i, v)
		}
	}
}

func TestFrameTypeStrings(t *testing.T) {
	for ft := FrameFree; ft <= FrameIO; ft++ {
		if ft.String() == "" {
			t.Errorf("empty string for %d", ft)
		}
	}
}
