package httpd

import (
	"testing"

	"repro"
	"repro/internal/kernel"
)

func pairUp(t *testing.T, serverMode repro.Mode) (*repro.System, *repro.System, *kernel.World) {
	t.Helper()
	server, client, world, err := repro.NewNetworkedPair(serverMode, repro.Native)
	if err != nil {
		t.Fatal(err)
	}
	return server, client, world
}

func TestServeAndMeasure(t *testing.T) {
	for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost} {
		server, client, world := pairUp(t, mode)
		payload := make([]byte, 10_000)
		server.Machine.RNG.Fill(payload)
		server.Kernel.WriteKernelFile("/site.bin", payload)
		if _, err := server.Kernel.Spawn("thttpd", ServerMain); err != nil {
			t.Fatal(err)
		}
		var res BenchResult
		done := false
		if _, err := client.Kernel.Spawn("ab", func(p *kernel.Proc) {
			ClientMain(p, "/site.bin", 4, &res)
			StopServer(p)
			done = true
		}); err != nil {
			t.Fatal(err)
		}
		if !world.Run(func() bool { return done }) {
			t.Fatalf("[%v] stalled", mode)
		}
		if res.Failures != 0 {
			t.Errorf("[%v] %d failed requests", mode, res.Failures)
		}
		if res.Bytes != 4*uint64(len(payload)) {
			t.Errorf("[%v] bytes = %d", mode, res.Bytes)
		}
		if res.KBPerSec <= 0 {
			t.Errorf("[%v] bandwidth not measured", mode)
		}
	}
}

func TestMissingFile404(t *testing.T) {
	server, client, world := pairUp(t, repro.Native)
	if _, err := server.Kernel.Spawn("thttpd", ServerMain); err != nil {
		t.Fatal(err)
	}
	var res BenchResult
	done := false
	if _, err := client.Kernel.Spawn("ab", func(p *kernel.Proc) {
		ClientMain(p, "/nope.bin", 1, &res)
		StopServer(p)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done }) {
		t.Fatalf("stalled")
	}
	if res.Failures != 1 || res.Bytes != 0 {
		t.Errorf("404 handling: %+v", res)
	}
}

func TestServerStopsOnQuit(t *testing.T) {
	server, client, world := pairUp(t, repro.Native)
	if _, err := server.Kernel.Spawn("thttpd", ServerMain); err != nil {
		t.Fatal(err)
	}
	done := false
	if _, err := client.Kernel.Spawn("q", func(p *kernel.Proc) {
		StopServer(p)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !world.Run(func() bool { return done }) {
		t.Fatalf("stalled")
	}
	server.Kernel.RunUntilIdle()
	if server.Kernel.NumLive() != 0 {
		t.Errorf("server still alive after QUIT")
	}
}

func TestParseHeader(t *testing.T) {
	body, want, ok := parseHeader([]byte("200 12345\nabc"))
	if !ok || want != 12345 || string(body) != "abc" {
		t.Errorf("parse = %q %d %v", body, want, ok)
	}
	for _, bad := range []string{"404\n", "garbage", "200 notanumber\n"} {
		if _, _, ok := parseHeader([]byte(bad)); ok {
			t.Errorf("%q parsed as success", bad)
		}
	}
	// An empty 200 response is still a success.
	if _, w, ok := parseHeader([]byte("200 0\n")); !ok || w != 0 {
		t.Errorf("empty 200 rejected")
	}
}
