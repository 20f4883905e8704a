package network

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBuiltinLinksValidate(t *testing.T) {
	for _, l := range []Link{PCIe, SimulatedNet, NVLink} {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

func TestValidateRejectsBadLinks(t *testing.T) {
	if err := (Link{Name: "zero"}).Validate(); err == nil {
		t.Error("zero bandwidth validated")
	}
	if err := (Link{Name: "neg", Bandwidth: 1, Latency: -1}).Validate(); err == nil {
		t.Error("negative latency validated")
	}
}

func TestPaperMeasuredBandwidths(t *testing.T) {
	// Paper §4.1: simulated network = 73.28 Gbps; PCIe = 20.79 GB/s.
	if got := SimulatedNet.Bandwidth * 8 / 1e9; math.Abs(got-73.28) > 0.01 {
		t.Fatalf("SimulatedNet = %.2f Gbps", got)
	}
	if got := PCIe.Bandwidth / 1e9; math.Abs(got-20.79) > 0.01 {
		t.Fatalf("PCIe = %.2f GB/s", got)
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{Name: "t", Bandwidth: 1e9, Latency: time.Millisecond}
	// 1 GB at 1 GB/s = 1 s plus 1 ms latency.
	got := l.TransferTime(1e9)
	want := time.Second + time.Millisecond
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	if got := l.TransferTime(0); got != time.Millisecond {
		t.Fatalf("zero-byte transfer = %v", got)
	}
}

func TestTransferNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative transfer did not panic")
		}
	}()
	PCIe.TransferTime(-1)
}

func TestAllReduceSingleParticipantFree(t *testing.T) {
	if got := PCIe.AllReduceTime(1<<20, 1); got != 0 {
		t.Fatalf("1-participant all-reduce = %v", got)
	}
}

func TestAllReduceScalesWithParticipantLatency(t *testing.T) {
	l := Link{Name: "t", Bandwidth: 1e12, Latency: 100 * time.Microsecond}
	// Tiny payload: latency-dominated, 2*(n-1) steps.
	small := int64(64)
	t2 := l.AllReduceTime(small, 2)
	t4 := l.AllReduceTime(small, 4)
	if t4 <= t2 {
		t.Fatalf("latency-dominated all-reduce not growing: %v vs %v", t2, t4)
	}
	// 2 participants: 2 steps.
	if t2 < 200*time.Microsecond {
		t.Fatalf("2-way all-reduce = %v, want >= 200us", t2)
	}
}

func TestAllReduceBandwidthTerm(t *testing.T) {
	l := Link{Name: "t", Bandwidth: 1e9, Latency: 0}
	// Ring all-reduce of B bytes over n GPUs moves 2*(n-1)/n * B per GPU.
	got := l.AllReduceTime(4e9, 4)
	want := time.Duration(2.0 * 3.0 / 4.0 * 4e9 / 1e9 * float64(time.Second))
	if got != want {
		t.Fatalf("AllReduceTime = %v, want %v", got, want)
	}
}

func TestAllReducePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { PCIe.AllReduceTime(1, 0) },
		func() { PCIe.AllReduceTime(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCrossNodeSlowerThanIntraNode(t *testing.T) {
	bytes := int64(20 << 20)
	if SimulatedNet.TransferTime(bytes) <= PCIe.TransferTime(bytes) {
		t.Fatal("simulated net should be slower than PCIe for large messages")
	}
}

func TestIntraNodeTopology(t *testing.T) {
	topo := IntraNode(4, PCIe)
	if topo.GPUs() != 4 {
		t.Fatalf("GPUs = %d", topo.GPUs())
	}
	for i := 0; i < 3; i++ {
		if topo.Hop(i).Name != "PCIe" {
			t.Fatalf("hop %d = %s", i, topo.Hop(i).Name)
		}
	}
	if topo.TPLink.Name != "PCIe" {
		t.Fatalf("TP link = %s", topo.TPLink.Name)
	}
}

func TestCrossNodeTopologyHops(t *testing.T) {
	topo := CrossNode(4, 1, PCIe, SimulatedNet)
	if topo.GPUs() != 4 {
		t.Fatalf("GPUs = %d", topo.GPUs())
	}
	for i := 0; i < 3; i++ {
		if topo.Hop(i).Name != "SimulatedNet" {
			t.Fatalf("hop %d should cross nodes, got %s", i, topo.Hop(i).Name)
		}
	}
	if topo.TPLink.Name != "SimulatedNet" {
		t.Fatalf("cross-node TP link = %s", topo.TPLink.Name)
	}
}

func TestCrossNodeMixedHops(t *testing.T) {
	topo := CrossNode(2, 2, PCIe, SimulatedNet)
	// GPUs: n0g0, n0g1 | n1g0, n1g1 -> hops: intra, inter, intra.
	wantNames := []string{"PCIe", "SimulatedNet", "PCIe"}
	for i, want := range wantNames {
		if got := topo.Hop(i).Name; got != want {
			t.Fatalf("hop %d = %s, want %s", i, got, want)
		}
	}
}

func TestSingleNodeCrossNodeUsesIntraTP(t *testing.T) {
	topo := CrossNode(1, 4, PCIe, SimulatedNet)
	if topo.TPLink.Name != "PCIe" {
		t.Fatalf("single-node TP link = %s", topo.TPLink.Name)
	}
}

func TestHopOutOfRangePanics(t *testing.T) {
	topo := IntraNode(2, PCIe)
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Hop(%d) did not panic", i)
				}
			}()
			topo.Hop(i)
		}()
	}
}

func TestTopologyPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { IntraNode(0, PCIe) },
		func() { CrossNode(0, 1, PCIe, SimulatedNet) },
		func() { CrossNode(1, 0, PCIe, SimulatedNet) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestQuickTransferMonotoneInSize(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return PCIe.TransferTime(lo) <= PCIe.TransferTime(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
