// webserver runs the Figure 2 experiment in miniature: a thttpd-style
// server on a Virtual Ghost machine serving files over the simulated
// gigabit link to an ApacheBench-style client on a second (native)
// machine, printing the measured bandwidth per file size.
package main

import (
	"fmt"

	"repro"
	"repro/internal/apps/httpd"
	"repro/internal/kernel"
)

func main() {
	for _, size := range []int{4 << 10, 64 << 10, 512 << 10} {
		for _, mode := range []repro.Mode{repro.Native, repro.VirtualGhost} {
			kbps := run(mode, size, 5)
			fmt.Printf("%7d B file, %-12v server: %8.0f KB/s\n", size, mode, kbps)
		}
	}
}

func run(serverMode repro.Mode, size, requests int) float64 {
	server, client, world, err := repro.NewNetworkedPair(serverMode, repro.Native)
	if err != nil {
		panic(err)
	}

	// Publish a file on the server.
	payload := make([]byte, size)
	server.Machine.RNG.Fill(payload)
	server.Kernel.WriteKernelFile("/index.bin", payload)

	if _, err := server.Kernel.Spawn("thttpd", httpd.ServerMain); err != nil {
		panic(err)
	}
	var res httpd.BenchResult
	done := false
	if _, err := client.Kernel.Spawn("ab", func(p *kernel.Proc) {
		httpd.ClientMain(p, "/index.bin", requests, &res)
		httpd.StopServer(p)
		done = true
	}); err != nil {
		panic(err)
	}
	if !world.Run(func() bool { return done }) {
		panic("transfer stalled")
	}
	return res.KBPerSec
}
