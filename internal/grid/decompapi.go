package grid

import "repro/internal/par"

// Decomp is the decomposition contract shared by every component grid: the
// icosahedral atmosphere mesh (IcosDecomp) and the tripolar ocean/sea-ice
// grid (TripolarDecomp) both implement it, so the coupler, budget audit,
// restart, and snapshot paths in core can be written once against ownership
// queries and owned ranges instead of special-casing one component's
// concrete decomposition.
//
// A decomposition partitions a global index space (mesh cells, or grid
// columns) over the ranks of a communicator. Every global element is owned
// by at most one rank; elements owned by no rank (Owner == -1) are
// land-eliminated — the paper's non-ocean-point exclusion applied to the
// partition itself — and carry identically-zero field values.
type Decomp interface {
	// Comm returns the communicator the decomposition spans.
	Comm() *par.Comm

	// NGlobal returns the global number of decomposed elements.
	NGlobal() int

	// Owner returns the rank owning global element gi, or -1 when the
	// element is assigned to no rank (a land-eliminated block).
	Owner(gi int) int

	// InExt reports whether gi lies in this rank's extended
	// (owned + halo) region.
	InExt(gi int) bool

	// OwnedRanges returns this rank's owned global indices as
	// {start, length} runs, ascending and non-overlapping. The slice is
	// cached by the decomposition; callers must not mutate it.
	OwnedRanges() [][2]int

	// ExchangeCells fills the halo of an nlev-level field held in the
	// decomposition's local storage layout (the patch, one contiguous
	// nlev-value column per local cell, for the mesh decomposition;
	// halo-padded block per level for the tripolar one).
	ExchangeCells(f []float64, nlev int)

	// Gather assembles one level of a local field into the full global
	// array on rank 0 (nil on the other ranks). Collective.
	Gather(f []float64) []float64

	// SetObserver attaches the halo traffic counters
	// (cpl.halo.{msgs,bytes} with a component label).
	SetObserver(o HaloObserver)
}

// EdgeDecomp is the optional extension implemented by decompositions that
// also partition a mesh edge set (the atmosphere's velocity dofs live on
// edges). Restart and state-assembly code asserts on it instead of naming a
// concrete decomposition type.
type EdgeDecomp interface {
	// OwnedEdgeList returns the ascending edge ids owned by this rank —
	// a partition of the global edge set across ranks.
	OwnedEdgeList() []int
}
