// Package machine models the two heterogeneous supercomputers of the paper
// (§6.3): the Sunway OceanLight system (107,520 nodes × one SW26010P
// 390-core CPU each — six core groups of one management processing element
// (MPE) plus 64 compute processing elements (CPEs) — on a 16:3
// oversubscribed multilevel fat tree with 256-node supernodes) and the
// ORISE system (CPU + four HIP GPUs per node, 16 GB/s PCIe, 25 GB/s
// interconnect).
//
// The structs carry the published topology and bandwidth figures; the
// perfmodel package combines them with calibrated per-point kernel costs to
// regenerate the paper's scaling results.
package machine

import (
	"fmt"
	"math"
)

// Machine describes one system.
type Machine struct {
	Name string

	Nodes         int     // total node count
	CoresPerNode  int     // hardware cores per node (Sunway: 390)
	RanksPerNode  int     // processes per node (Sunway: one per CG = 6)
	AccelPerNode  int     // discrete accelerators per node (ORISE: 4 GPUs)
	NodeGFlops    float64 // peak per node, all accelerators/CPEs
	MPEGFlops     float64 // per management core (MPE-only baseline rate)
	MemBWGBs      float64 // per-node memory bandwidth
	InjectGBs     float64 // per-node network injection bandwidth
	LatencyUS     float64 // nearest-neighbour network latency (microseconds)
	SupernodeSize int     // nodes sharing a leaf switch (Sunway: 256)
	Oversub       float64 // uplink oversubscription (Sunway: 16/3)
	PCIeGBs       float64 // host<->accelerator bandwidth (ORISE)
}

// SunwayOceanLight returns the OceanLight system model. Counts are from the
// paper; rate figures follow the published SW26010P characteristics
// (~14 TF/s FP64 per CPU, each of 6 CGs contributing via its 64 CPEs).
func SunwayOceanLight() *Machine {
	return &Machine{
		Name:          "Sunway OceanLight",
		Nodes:         107520,
		CoresPerNode:  390,
		RanksPerNode:  6,
		NodeGFlops:    14000,
		MPEGFlops:     16, // one MPE core, scalar
		MemBWGBs:      307,
		InjectGBs:     25,
		LatencyUS:     2.5,
		SupernodeSize: 256,
		Oversub:       16.0 / 3.0,
	}
}

// ORISE returns the ORISE system model: 4 MI60-class HIP GPUs per node
// (~6.6 TF/s FP64 each), 32-bit PCIe DMA at 16 GB/s, 25 GB/s network.
func ORISE() *Machine {
	return &Machine{
		Name:         "ORISE",
		Nodes:        4096,
		CoresPerNode: 32,
		RanksPerNode: 4, // one rank per GPU
		AccelPerNode: 4,
		NodeGFlops:   4 * 6600,
		MPEGFlops:    32,
		MemBWGBs:     4 * 1024,
		InjectGBs:    25,
		LatencyUS:    1.8,
		PCIeGBs:      16,
	}
}

// CoresForNodes converts node count to cores.
func (m *Machine) CoresForNodes(nodes int) int { return nodes * m.CoresPerNode }

// CrossSupernodeFraction estimates the fraction of halo traffic that must
// traverse the oversubscribed uplinks when P ranks hold a 2-D block
// decomposition: once the job spans more than one supernode, roughly the
// block-boundary share of each supernode's surface crosses it. Returns 0
// for jobs inside a single supernode and grows toward an asymptote as the
// job spans more supernodes.
func (m *Machine) CrossSupernodeFraction(nodes int) float64 {
	if m.SupernodeSize == 0 || nodes <= m.SupernodeSize {
		return 0
	}
	supernodes := float64(nodes) / float64(m.SupernodeSize)
	// Each supernode holds a contiguous √n × √n patch of the block
	// decomposition; its boundary ranks talk across the uplinks. The
	// boundary share of one patch is the asymptote, approached as the job
	// spans more supernodes.
	side := math.Sqrt(float64(m.SupernodeSize))
	asym := (4*side - 4) / float64(m.SupernodeSize)
	if asym > 1 {
		asym = 1
	}
	return asym * (1 - 1/supernodes)
}

// EffectiveHaloBW returns the per-node halo bandwidth in GB/s after the
// oversubscription penalty for a job of the given node count.
func (m *Machine) EffectiveHaloBW(nodes int) float64 {
	f := m.CrossSupernodeFraction(nodes)
	if f == 0 || m.Oversub <= 1 {
		return m.InjectGBs
	}
	// Traffic fraction f is slowed by the oversubscription ratio.
	return m.InjectGBs / ((1 - f) + f*m.Oversub)
}

// Validate checks internal consistency.
func (m *Machine) Validate() error {
	if m.Nodes <= 0 || m.CoresPerNode <= 0 || m.RanksPerNode <= 0 {
		return fmt.Errorf("machine %s: non-positive size fields", m.Name)
	}
	if m.NodeGFlops <= 0 || m.InjectGBs <= 0 || m.LatencyUS <= 0 {
		return fmt.Errorf("machine %s: non-positive rate fields", m.Name)
	}
	return nil
}
