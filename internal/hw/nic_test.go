package hw

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// nicModel is the receive side of a NIC as the obvious structures: a
// map of per-port FIFOs, the pending ports as a sorted slice, and every
// frame in arrival order, where a received one is marked gone.
type nicModel struct {
	q        map[uint16][]*modelFrame
	pending  []uint16
	order    []*modelFrame
	live     int
	drops    map[uint16]uint64
	received uint64
	dropped  uint64
}

type modelFrame struct {
	Packet
	gone bool
}

func newNICModel() *nicModel {
	return &nicModel{q: make(map[uint16][]*modelFrame), drops: make(map[uint16]uint64)}
}

func (m *nicModel) deliver(p Packet) {
	if len(m.q[p.Port]) >= defaultPortLimit {
		m.dropped++
		m.drops[p.Port]++
		return
	}
	m.received += uint64(len(p.Payload))
	if len(m.q[p.Port]) == 0 {
		i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i] >= p.Port })
		m.pending = append(m.pending[:i], append([]uint16{p.Port}, m.pending[i:]...)...)
	}
	f := &modelFrame{Packet: p}
	m.q[p.Port] = append(m.q[p.Port], f)
	m.order = append(m.order, f)
	m.live++
}

func (m *nicModel) receive(port uint16) ([]byte, bool) {
	q := m.q[port]
	if len(q) == 0 {
		return nil, false
	}
	m.q[port] = q[1:]
	if len(q) == 1 {
		i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i] >= port })
		m.pending = append(m.pending[:i], m.pending[i+1:]...)
	}
	q[0].gone = true
	if m.live--; 2*m.live < len(m.order) {
		m.order = slices.DeleteFunc(m.order, func(f *modelFrame) bool { return f.gone })
	}
	return q[0].Payload, true
}

// checkNIC compares n with the model: the pending ports in ascending
// order, each port's FIFO and counters, Snoop's arrival order and the
// totals, plus the structure's own invariants — the summary marks
// exactly the non-zero bitmap words, and an empty queue holds no array.
func checkNIC(t *testing.T, step int, n *NIC, m *nicModel, universe []uint16) {
	t.Helper()
	var pend []uint16
	for port, ok := n.NextPendingPort(0); ok; port, ok = n.NextPendingPort(int(port) + 1) {
		pend = append(pend, port)
	}
	if !slices.Equal(pend, m.pending) {
		t.Fatalf("step %d: pending ports %v, model %v", step, pend, m.pending)
	}
	if n.HasPending() != (m.live > 0) || n.rxCount != m.live {
		t.Fatalf("step %d: HasPending %v rxCount %d, model holds %d frames", step, n.HasPending(), n.rxCount, m.live)
	}
	for _, port := range universe {
		q := m.q[port]
		var bytesQ uint64
		for _, f := range q {
			bytesQ += uint64(len(f.Payload))
		}
		head := -1
		if len(q) > 0 {
			head = len(q[0].Payload)
		}
		if n.Pending(port) != len(q) || n.PeekPayloadLen(port) != head || n.QueuedBytes(port) != bytesQ || n.PortDrops(port) != m.drops[port] {
			t.Fatalf("step %d port %d: pending %d peek %d bytes %d drops %d, model %d %d %d %d", step, port,
				n.Pending(port), n.PeekPayloadLen(port), n.QueuedBytes(port), n.PortDrops(port), len(q), head, bytesQ, m.drops[port])
		}
		s := n.port(port)
		if s == nil {
			continue
		}
		if len(s.q)-s.head != len(q) {
			t.Fatalf("step %d port %d: %d queued, model %d", step, port, len(s.q)-s.head, len(q))
		}
		for i, e := range s.q[s.head:] {
			if !bytes.Equal(e.pkt.Payload, q[i].Payload) || e.pkt.Port != port {
				t.Fatalf("step %d port %d: frame %d is %q, model %q", step, port, i, e.pkt.Payload, q[i].Payload)
			}
		}
		if len(q) == 0 && (s.q != nil || s.head != 0) {
			t.Fatalf("step %d port %d: drained queue kept its array", step, port)
		}
	}
	snoop := n.Snoop()
	if len(snoop) != m.live {
		t.Fatalf("step %d: Snoop has %d frames, model %d", step, len(snoop), m.live)
	}
	i := 0
	for _, f := range m.order {
		if f.gone {
			continue
		}
		if p := snoop[i]; p.Port != f.Port || !bytes.Equal(p.Payload, f.Payload) {
			t.Fatalf("step %d: Snoop frame %d is port %d %q, model port %d %q", step, i, p.Port, p.Payload, f.Port, f.Payload)
		}
		i++
	}
	if _, recv, dropped := n.Stats(); recv != m.received || dropped != m.dropped {
		t.Fatalf("step %d: received %d dropped %d, model %d %d", step, recv, dropped, m.received, m.dropped)
	}
	if n.rx != nil {
		for w, word := range n.rx.pend {
			if set := n.rx.sum[w/64]&(1<<(w%64)) != 0; set != (word != 0) {
				t.Fatalf("step %d: summary bit %d is %v for bitmap word %#x", step, w, set, word)
			}
		}
	}
}

// TestNICMatchesModel drives the port-indexed receive table with seeded
// random deliveries (one port pushed past its 4,096-frame cap),
// receives and snapshot capture/apply round trips, on
// ports spread over the table's pages and bitmap words, and compares
// it with nicModel after every step.
func TestNICMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &Clock{}
		peer, n := NewNIC(clk), NewNIC(clk)
		Connect(peer, n)
		m := newNICModel()
		universe := []uint16{0, 255, 256, 8080, 32768, 65535}
		for len(universe) < 40 {
			universe = append(universe, uint16(32768+rng.Intn(32768)))
		}
		capPort := universe[rng.Intn(len(universe))]
		payload := func() []byte {
			b := make([]byte, 1+rng.Intn(40))
			rng.Read(b)
			return b
		}
		for step := 0; step < 800; step++ {
			port := universe[rng.Intn(len(universe))]
			switch op := rng.Intn(40); {
			case n.Pending(capPort) > defaultPortLimit/2 && rng.Intn(3) == 0:
				// Drain the capped port soon after filling it, so most
				// steps check a table of a few frames.
				for {
					want, wantOK := m.receive(capPort)
					got, ok := n.Receive(capPort)
					if ok != wantOK || !bytes.Equal(got.Payload, want) {
						t.Fatalf("seed %d step %d: draining %d: %v %q, model %v %q", seed, step, capPort, ok, got.Payload, wantOK, want)
					}
					if !ok {
						break
					}
				}
			case op < 18:
				p := Packet{Port: port, Payload: payload()}
				m.deliver(Packet{Port: port, Payload: append([]byte(nil), p.Payload...)})
				peer.Send(p)
			case op < 32:
				if len(m.pending) > 0 && rng.Intn(4) != 0 {
					port = m.pending[rng.Intn(len(m.pending))]
				}
				want, wantOK := m.receive(port)
				got, ok := n.Receive(port)
				if ok != wantOK || !bytes.Equal(got.Payload, want) || (ok && got.Port != port) {
					t.Fatalf("seed %d step %d: Receive(%d) = %v %q, model %v %q", seed, step, port, ok, got.Payload, wantOK, want)
				}
			case op < 39:
				// Snapshot round trip, onto a fresh NIC or over this one;
				// the restored NIC carries on and re-captures identically.
				s := n.captureSnap()
				dst := n
				if rng.Intn(2) == 0 {
					dst = NewNIC(clk)
					Connect(peer, dst)
				}
				dst.applySnap(&s)
				n = dst
				a, _ := json.Marshal(s)
				again := n.captureSnap()
				b, _ := json.Marshal(again)
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d step %d: re-captured image differs:\n%s\n%s", seed, step, a, b)
				}
			default:
				// Fill one port to its cap and past it.
				for i := n.Pending(capPort); i < defaultPortLimit+2; i++ {
					m.deliver(Packet{Port: capPort, Payload: []byte{byte(i)}})
					peer.Send(Packet{Port: capPort, Payload: []byte{byte(i)}})
				}
			}
			checkNIC(t, step, n, m, universe)
		}
		if m.dropped == 0 {
			t.Fatalf("seed %d: the walk never reached the per-port cap", seed)
		}
	}
}
