//go:build linux

package eswitch

import (
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/workload"
)

// TestAFPacketVethForwarding is the acceptance end-to-end of the pluggable
// packet I/O backends: an ESWITCH datapath compiled from the cross-connect
// use case, its two ports bound to real Linux interfaces through the same
// backend specification eswitchd's -backend flag parses, forwards real
// frames between two veth pairs.  Tester packet sockets on the far ends of
// the pairs play the neighboring hosts: every frame pushed into pair A's far
// end must come back out of pair B's far end (port 1 cross-connects to port
// 2) and vice versa.
//
// Creating veth interfaces needs CAP_NET_ADMIN and the sockets CAP_NET_RAW,
// so the test skips cleanly on unprivileged runners.
func TestAFPacketVethForwarding(t *testing.T) {
	swIfA, farIfA, cleanA := e2eVethPair(t, "eA")
	defer cleanA()
	swIfB, farIfB, cleanB := e2eVethPair(t, "eB")
	defer cleanB()

	// The exact construction path of `eswitchd -backend afpacket:...`.
	spec := fmt.Sprintf("afpacket:%s,afpacket:%s", swIfA, swIfB)
	backends, err := dpdk.ParseBackendSpec(spec, 2, dpdk.BackendSpecConfig{})
	if err != nil {
		t.Skipf("backend spec %q: %v (CAP_NET_RAW required)", spec, err)
	}

	uc := workload.XConnectUseCase(2)
	opts := core.DefaultOptions()
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		t.Fatal(err)
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{Backends: backends})
	defer sw.Close()

	testerA, err := dpdk.NewAFPacketBackend(farIfA)
	if err != nil {
		t.Skipf("tester socket on %s: %v", farIfA, err)
	}
	defer testerA.Close()
	testerB, err := dpdk.NewAFPacketBackend(farIfB)
	if err != nil {
		t.Skipf("tester socket on %s: %v", farIfB, err)
	}
	defer testerB.Close()

	// Veth carrier comes up asynchronously: probe each pair until traffic
	// passes, draining the probes before the workers start.  The probes use
	// an ethertype e2eIsTestFrame rejects.
	e2eWaitCarrier(t, testerA, backends[0].(*dpdk.AFPacketBackend))
	e2eWaitCarrier(t, testerB, backends[1].(*dpdk.AFPacketBackend))

	stop := sw.RunWorkers(1)
	defer stop()

	const frames = 32
	for dir, ends := range [][2]*dpdk.AFPacketBackend{{testerA, testerB}, {testerB, testerA}} {
		src, dst := ends[0], ends[1]
		sent := make([][]byte, frames)
		for i := range sent {
			sent[i] = e2eTestFrame(dir, i)
		}
		if n := src.TxBurst(0, sent); n != frames {
			t.Fatalf("direction %d: tester transmitted %d of %d frames", dir, n, frames)
		}
		got := e2eCollect(dst, frames, 5*time.Second)
		if got != frames {
			t.Fatalf("direction %d: %d of %d frames forwarded across the switch", dir, got, frames)
		}
	}

	st := sw.Stats()
	if st.Processed < 2*frames {
		t.Fatalf("switch processed %d packets, want >= %d", st.Processed, 2*frames)
	}
	t.Logf("forwarded %d frames each way: %d processed, port stats %+v / %+v",
		frames, st.Processed, sw.Ports()[0].Stats(), sw.Ports()[1].Stats())
}

// e2eVethPair creates an up veth pair (switch end, far end), skipping the
// test when the environment cannot create links.  Interface names are capped
// at 15 bytes by the kernel.
func e2eVethPair(t *testing.T, prefix string) (swEnd, farEnd string, cleanup func()) {
	t.Helper()
	swEnd = fmt.Sprintf("%s%ds", prefix, os.Getpid()%100000)
	farEnd = fmt.Sprintf("%s%dp", prefix, os.Getpid()%100000)
	if out, err := exec.Command("ip", "link", "add", swEnd, "type", "veth", "peer", "name", farEnd).CombinedOutput(); err != nil {
		t.Skipf("cannot create veth pair (CAP_NET_ADMIN required): %v: %s", err, out)
	}
	cleanup = func() { exec.Command("ip", "link", "del", swEnd).Run() }
	for _, iface := range []string{swEnd, farEnd} {
		if out, err := exec.Command("ip", "link", "set", iface, "up").CombinedOutput(); err != nil {
			cleanup()
			t.Skipf("cannot bring %s up: %v: %s", iface, err, out)
		}
	}
	return swEnd, farEnd, cleanup
}

// e2eTestFrame builds a distinctively tagged minimum-size Ethernet frame.
func e2eTestFrame(dir, i int) []byte {
	f := make([]byte, 60)
	copy(f, []byte{0x02, 0xe2, 0xe0, byte(dir), 0x00, byte(i), 0x02, 0xe2, 0xe0, byte(dir), 0x01, byte(i)})
	f[12], f[13] = 0x88, 0xb5
	f[14], f[15] = byte(dir), byte(i)
	return f
}

// e2eIsTestFrame distinguishes forwarded test frames from kernel chatter
// (IPv6 neighbor discovery and the like) the taps also see.
func e2eIsTestFrame(f []byte) bool {
	return len(f) >= 14 && f[12] == 0x88 && f[13] == 0xb5 && f[0] == 0x02 && f[1] == 0xe2 && f[2] == 0xe0
}

// e2eCollect polls the tester socket until want test frames arrived or the
// deadline passed, returning the count.
func e2eCollect(be *dpdk.AFPacketBackend, want int, timeout time.Duration) int {
	out := make([][]byte, 16)
	got := 0
	deadline := time.Now().Add(timeout)
	for got < want && !time.Now().After(deadline) {
		n := be.RxBurst(0, out)
		for i := 0; i < n; i++ {
			if e2eIsTestFrame(out[i]) {
				got++
			}
		}
		if n == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	return got
}

// e2eWaitCarrier probes from the far end until the switch-side socket sees
// traffic, then drains both sockets.
func e2eWaitCarrier(t *testing.T, far, swSide *dpdk.AFPacketBackend) {
	t.Helper()
	probe := make([]byte, 60)
	copy(probe, []byte{0x02, 0x70, 0x0b, 0xe0, 0x00, 0x01, 0x02, 0x70, 0x0b, 0xe0, 0x00, 0x02})
	probe[12], probe[13] = 0x88, 0xb6
	out := make([][]byte, 8)
	deadline := time.Now().Add(2 * time.Second)
	for {
		far.TxBurst(0, [][]byte{probe})
		if swSide.RxBurst(0, out) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Skipf("veth pair never passed traffic (no carrier)")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for swSide.RxBurst(0, out) > 0 {
	}
	for far.RxBurst(0, out) > 0 {
	}
}
