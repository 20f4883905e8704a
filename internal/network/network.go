// Package network models the interconnects of the paper's testbeds: the
// PCIe fabric inside a node and the (simulated) network between nodes, with
// the exact bandwidths the paper measures (20.79 GB/s PCIe, 73.28 Gbps
// network once NCCL P2P and shared memory are disabled). It prices the two
// communication patterns LLM serving needs: point-to-point activation
// transfers for pipeline parallelism and ring all-reduces for tensor
// parallelism.
package network

import (
	"fmt"
	"time"
)

// Link describes one interconnect class between adjacent devices.
type Link struct {
	Name string
	// Bandwidth in bytes/s.
	Bandwidth float64
	// Latency is the fixed per-message cost (software stack + wire).
	Latency time.Duration
}

// Validate reports a descriptive error for non-physical links.
func (l Link) Validate() error {
	if l.Bandwidth <= 0 {
		return fmt.Errorf("network %s: Bandwidth = %g", l.Name, l.Bandwidth)
	}
	if l.Latency < 0 {
		return fmt.Errorf("network %s: Latency = %v", l.Name, l.Latency)
	}
	return nil
}

// Built-in links. PCIe and SimulatedNet carry the paper's measured numbers
// (§4.1); NVLink is included for completeness / extension experiments.
var (
	// PCIe is the intra-node fabric of all three paper testbeds:
	// measured 20.79 GB/s.
	PCIe = Link{Name: "PCIe", Bandwidth: 20.79e9, Latency: 10 * time.Microsecond}

	// SimulatedNet is the paper's cross-node configuration (NCCL P2P and
	// SHM disabled, all traffic through the network stack): measured
	// 73.28 Gbps = 9.16 GB/s.
	SimulatedNet = Link{Name: "SimulatedNet", Bandwidth: 73.28e9 / 8, Latency: 50 * time.Microsecond}

	// NVLink is a fast intra-node fabric for extension studies.
	NVLink = Link{Name: "NVLink", Bandwidth: 300e9, Latency: 5 * time.Microsecond}
)

// TransferTime returns the time for a point-to-point message of the given
// size: the pipeline-parallel activation hand-off. A non-positive size
// costs only link latency.
func (l Link) TransferTime(bytes int64) time.Duration {
	if bytes < 0 {
		panic(fmt.Sprintf("network: negative transfer size %d", bytes))
	}
	return l.Latency + time.Duration(float64(bytes)/l.Bandwidth*float64(time.Second))
}

// AllReduceTime returns the time of a ring all-reduce of the given payload
// across n participants: 2*(n-1) steps, each moving bytes/n and paying the
// link latency. This is the tensor-parallel per-operation synchronization
// cost; with n == 1 it is free.
func (l Link) AllReduceTime(bytes int64, n int) time.Duration {
	if n < 1 {
		panic(fmt.Sprintf("network: all-reduce with %d participants", n))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("network: negative all-reduce size %d", bytes))
	}
	if n == 1 {
		return 0
	}
	steps := 2 * (n - 1)
	perStepBytes := float64(bytes) / float64(n)
	perStep := l.Latency + time.Duration(perStepBytes/l.Bandwidth*float64(time.Second))
	return time.Duration(steps) * perStep
}

// ScatterTime returns the time for a root to scatter (or symmetrically
// gather) a payload of the given total size across n participants: the
// root keeps its own 1/n slice locally and serializes the remaining
// (n-1)/n of the bytes onto the link behind one message latency. This is
// the token-parallel query-scatter / attention-gather cost; with n == 1
// everything stays local and it is free.
func (l Link) ScatterTime(bytes int64, n int) time.Duration {
	if n < 1 {
		panic(fmt.Sprintf("network: scatter with %d participants", n))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("network: negative scatter size %d", bytes))
	}
	if n == 1 {
		return 0
	}
	wire := float64(bytes) * float64(n-1) / float64(n)
	return l.Latency + time.Duration(wire/l.Bandwidth*float64(time.Second))
}

// Topology describes how the GPUs hosting one model replica are wired:
// which link connects consecutive pipeline stages (or TP peers).
// StageLink[i] is the link between stage i and stage i+1; for TP all
// participants share TPLink.
type Topology struct {
	Name      string
	StageLink []Link
	TPLink    Link
}

// IntraNode builds a topology for gpusPerNode GPUs inside one node: every
// hop is the intra-node link.
func IntraNode(gpus int, link Link) Topology {
	if gpus < 1 {
		panic(fmt.Sprintf("network: intra-node topology with %d GPUs", gpus))
	}
	hops := make([]Link, gpus-1)
	for i := range hops {
		hops[i] = link
	}
	return Topology{Name: fmt.Sprintf("intra-node-%dx%s", gpus, link.Name), StageLink: hops, TPLink: link}
}

// CrossNode builds a topology spanning `nodes` nodes with gpusPerNode GPUs
// each, pipeline stages laid out node-major: hops within a node use intra,
// hops crossing a node boundary use inter. TP across nodes uses the
// inter-node link (the slowest participant gates a collective).
func CrossNode(nodes, gpusPerNode int, intra, inter Link) Topology {
	if nodes < 1 || gpusPerNode < 1 {
		panic(fmt.Sprintf("network: cross-node topology %dx%d", nodes, gpusPerNode))
	}
	total := nodes * gpusPerNode
	hops := make([]Link, total-1)
	for i := range hops {
		if (i+1)%gpusPerNode == 0 {
			hops[i] = inter
		} else {
			hops[i] = intra
		}
	}
	tp := intra
	if nodes > 1 {
		tp = inter
	}
	return Topology{
		Name:      fmt.Sprintf("cross-node-%dx%d-%s", nodes, gpusPerNode, inter.Name),
		StageLink: hops,
		TPLink:    tp,
	}
}

// GPUs returns the number of devices in the topology.
func (t Topology) GPUs() int { return len(t.StageLink) + 1 }

// Hop returns the link between pipeline stage i and i+1.
func (t Topology) Hop(i int) Link {
	if i < 0 || i >= len(t.StageLink) {
		panic(fmt.Sprintf("network: hop %d out of range (%d hops)", i, len(t.StageLink)))
	}
	return t.StageLink[i]
}
