package experiments

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/apps/httpd"
	"repro/internal/apps/ssh"
	"repro/internal/kernel"
	"repro/internal/vgcrypt"
)

// TransferSizes is the file-size sweep of Figures 2–4 (1 KB .. 1 MB;
// the paper swept to 1 GB for ssh, which exceeds the simulated disk —
// the crossover to link-bound behaviour happens well below 1 MB).
var TransferSizes = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// BandwidthPoint is one (size, bandwidth) sample per configuration.
type BandwidthPoint struct {
	SizeBytes int
	NativeKBs float64
	VGKBs     float64
	Ratio     float64 // VG / native
}

// FormatSeries renders a figure's series as a Markdown table.
func FormatSeries(title string, pts []BandwidthPoint, aLabel, bLabel string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n\n| File size | %s KB/s | %s KB/s | ratio |\n|---|---:|---:|---:|\n",
		title, aLabel, bLabel)
	for _, p := range pts {
		fmt.Fprintf(&sb, "| %s | %.0f | %.0f | %.2f |\n",
			sizeLabel(p.SizeBytes), p.NativeKBs, p.VGKBs, p.Ratio)
	}
	return sb.String()
}

// seedFile writes `size` bytes of pseudo-random data at path on the
// kernel's file system (the paper generated files from /dev/random).
func seedFile(k *kernel.Kernel, path string, size int) {
	data := make([]byte, size)
	k.M.RNG.Fill(data)
	if !k.WriteKernelFile(path, data) {
		panic("experiments: seeding " + path + " failed")
	}
	_ = k.FS.Sync()
}

// --- Figure 2: thttpd bandwidth ------------------------------------------------

// Figure2 measures web-transfer bandwidth for each file size on the
// native and Virtual Ghost server kernels. The client always runs a
// native kernel (the paper's iMac).
func Figure2(sc Scale) []BandwidthPoint {
	var pts []BandwidthPoint
	for _, size := range TransferSizes {
		nat := httpBandwidth(repro.Native, size, sc.HTTPRequests)
		vg := httpBandwidth(repro.VirtualGhost, size, sc.HTTPRequests)
		pt := BandwidthPoint{SizeBytes: size, NativeKBs: nat, VGKBs: vg}
		if nat > 0 {
			pt.Ratio = vg / nat
		}
		pts = append(pts, pt)
	}
	return pts
}

func httpBandwidth(serverMode repro.Mode, size, requests int) float64 {
	server, client, world, err := repro.NewNetworkedPair(serverMode, repro.Native)
	if err != nil {
		panic(err)
	}
	seedFile(server.Kernel, "/pub.bin", size)
	if _, err := server.Kernel.Spawn("thttpd", httpd.ServerMain); err != nil {
		panic(err)
	}
	var res httpd.BenchResult
	res.FileSize = size
	done := false
	if _, err := client.Kernel.Spawn("ab", func(p *kernel.Proc) {
		httpd.ClientMain(p, "/pub.bin", requests, &res)
		httpd.StopServer(p)
		done = true
	}); err != nil {
		panic(err)
	}
	if !world.Run(func() bool { return done }) {
		panic("experiments: figure 2 deadlocked")
	}
	if res.Failures > 0 {
		panic(fmt.Sprintf("experiments: %d failed requests", res.Failures))
	}
	return res.KBPerSec
}

// --- Figures 3 & 4: OpenSSH transfers --------------------------------------------

// Figure3 measures sshd (non-ghosting server) transfer bandwidth with
// the server kernel native vs Virtual Ghost; the scp-style client runs
// on a native-kernel machine.
func Figure3(sc Scale) []BandwidthPoint {
	var pts []BandwidthPoint
	for _, size := range TransferSizes {
		nat := sshBandwidth(repro.Native, repro.Native, false, size, sc.SSHRuns)
		vg := sshBandwidth(repro.VirtualGhost, repro.Native, false, size, sc.SSHRuns)
		pt := BandwidthPoint{SizeBytes: size, NativeKBs: nat, VGKBs: vg}
		if nat > 0 {
			pt.Ratio = vg / nat
		}
		pts = append(pts, pt)
	}
	return pts
}

// Figure4 compares the original and ghosting ssh clients, both running
// on a Virtual Ghost kernel (isolating the cost of ghost memory).
func Figure4(sc Scale) []BandwidthPoint {
	var pts []BandwidthPoint
	for _, size := range TransferSizes {
		orig := sshBandwidth(repro.Native, repro.VirtualGhost, false, size, sc.SSHRuns)
		ghost := sshBandwidth(repro.Native, repro.VirtualGhost, true, size, sc.SSHRuns)
		pt := BandwidthPoint{SizeBytes: size, NativeKBs: orig, VGKBs: ghost}
		if orig > 0 {
			pt.Ratio = ghost / orig
		}
		pts = append(pts, pt)
	}
	return pts
}

// sshBandwidth runs one server/client pair and returns the mean client
// bandwidth over `runs` transfers.
func sshBandwidth(serverMode, clientMode repro.Mode, ghosting bool, size, runs int) float64 {
	server, client, world, err := repro.NewNetworkedPair(serverMode, clientMode)
	if err != nil {
		panic(err)
	}
	seedFile(server.Kernel, "/big.bin", size)

	// Provision authentication: one key pair, private half on the
	// client machine (sealed for the ghosting client via its app key,
	// plaintext for the original client), public half authorized on
	// the server.
	appKey := make([]byte, 32)
	client.Machine.RNG.Fill(appKey)
	var seed [32]byte
	client.Machine.RNG.Fill(seed[:])
	pair := vgcrypt.DeriveKeyPair(seed)
	server.Kernel.WriteKernelFile(ssh.AuthorizedPath, pair.Public)
	client.Kernel.WriteKernelFile(ssh.PrivateKeyPath+".plain", pair.Private)
	sealed, err := vgcrypt.SealWithKeyAndCounter(appKey, 1, pair.Private)
	if err != nil {
		panic(err)
	}
	client.Kernel.WriteKernelFile(ssh.PrivateKeyPath, sealed)

	if _, err := server.Kernel.Spawn("sshd", ssh.ServerMain); err != nil {
		panic(err)
	}
	var total float64
	for i := 0; i < runs; i++ {
		var res ssh.TransferResult
		done := false
		main := ssh.ClientMain(ghosting, "/big.bin", &res)
		if ghosting {
			// The ghosting client must start through the trusted
			// loader so sva.getKey has its application key.
			if _, err := client.Kernel.InstallTrustedProgram("/bin/ssh", appKey, func(p *kernel.Proc) {
				main(p)
				done = true
			}); err != nil {
				panic(err)
			}
			if _, err := client.Kernel.SpawnProgram("/bin/ssh"); err != nil {
				panic(err)
			}
		} else {
			if _, err := client.Kernel.Spawn("ssh", func(p *kernel.Proc) {
				main(p)
				done = true
			}); err != nil {
				panic(err)
			}
		}
		if !world.Run(func() bool { return done }) {
			panic("experiments: ssh transfer deadlocked")
		}
		if !res.AuthOK {
			panic("experiments: ssh authentication failed")
		}
		total += res.KBPerSec
	}
	// Shut the server down.
	stopped := false
	if _, err := client.Kernel.Spawn("quitter", func(p *kernel.Proc) {
		ssh.StopServer(p)
		stopped = true
	}); err != nil {
		panic(err)
	}
	world.Run(func() bool { return stopped })
	return total / float64(runs)
}
