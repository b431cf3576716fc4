// Package mec models the paper's system (Section III): an MEC network
// G = (BS, E) of 5G base stations interconnected by backhaul paths, AR
// requests composed of task pipelines with uncertain data rates, and the
// delay model of Eq. (2).
//
// Units used throughout the repository:
//   - computing capacity: MHz
//   - data rate: MB/s
//   - delay: milliseconds
//   - reward: dollars
//   - time: discrete slots of SlotLengthMS each
package mec

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"mecoffload/internal/graph"
	"mecoffload/internal/topology"
)

// Paper defaults (Section VI-A).
const (
	// DefaultCUnit is the computing resource consumed per unit data rate:
	// 20 MHz per MB/s.
	DefaultCUnit = 20.0
	// DefaultSlotMHz is the capacity of one resource slot: 1000 MHz.
	DefaultSlotMHz = 1000.0
	// DefaultSlotLengthMS is the length of a scheduling time slot: 50 ms.
	DefaultSlotLengthMS = 50.0
	// DefaultDeadlineMS is the maximum response delay of an AR request.
	DefaultDeadlineMS = 200.0
)

// Errors returned by network constructors and accessors.
var (
	ErrNoStations  = errors.New("mec: network needs at least one base station")
	ErrBadCapacity = errors.New("mec: invalid station capacity")
	ErrBadStation  = errors.New("mec: station index out of range")
)

// BaseStation is one 5G base station with co-located edge computing.
type BaseStation struct {
	// ID is the station's vertex index in the backhaul graph.
	ID int
	// CapacityMHz is the total computing capacity C(bs_i).
	CapacityMHz float64
	// SpeedFactor scales task processing delays on this station;
	// 1.0 is nominal, smaller is faster. Models heterogeneous
	// accelerators ("the delays of processing rho_unit in different base
	// stations varies", Section III-D).
	SpeedFactor float64
}

// Network is an MEC network: base stations plus backhaul shortest-path
// structure. Build one per experiment and share it across algorithm runs.
// The topology and nominal capacities are immutable and all methods are
// safe for concurrent reads; the one mutable knob is the per-station
// capacity scale (SetCapacityScale), which models outages and degraded
// operation. Scale changes must happen between scheduling slots — i.e.
// not concurrently with readers — which is how the simulation engine
// applies them.
type Network struct {
	stations []BaseStation
	topo     *topology.Topology
	ap       *graph.AllPairs
	// slotMHz is C_l, the capacity of one resource slot.
	slotMHz float64
	// cUnit is C_unit, MHz consumed per MB/s of data rate.
	cUnit float64
	// capScale multiplies each station's nominal capacity; nil means all
	// ones. Lazily allocated by SetCapacityScale so the common stationary
	// case costs one nil check per Capacity read.
	capScale []float64
	// byDelay holds every station's stations by ascending backhaul delay,
	// station i's at [i*N, (i+1)*N): i itself first, then the others, equal
	// delays in index order. The topology is immutable, so neither
	// NeighborsByDistance nor Reach sorts anything.
	byDelay []int
}

// NetworkConfig parameterizes NewNetwork.
type NetworkConfig struct {
	// Stations describes each base station. CapacityMHz must be positive;
	// a zero SpeedFactor defaults to 1.
	Stations []BaseStation
	// Topo is the backhaul topology; its graph must have exactly
	// len(Stations) vertices.
	Topo *topology.Topology
	// SlotMHz is the resource-slot size C_l (default 1000 MHz).
	SlotMHz float64
	// CUnit is the MHz consumed per MB/s (default 20).
	CUnit float64
}

// NewNetwork validates the configuration and precomputes all-pairs
// shortest backhaul paths.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if len(cfg.Stations) == 0 {
		return nil, ErrNoStations
	}
	if cfg.Topo == nil || cfg.Topo.Graph.N() != len(cfg.Stations) {
		return nil, fmt.Errorf("mec: topology size mismatch: %d stations", len(cfg.Stations))
	}
	if cfg.SlotMHz == 0 {
		cfg.SlotMHz = DefaultSlotMHz
	}
	if cfg.CUnit == 0 {
		cfg.CUnit = DefaultCUnit
	}
	if cfg.SlotMHz < 0 || cfg.CUnit <= 0 {
		return nil, fmt.Errorf("%w: slot=%v cUnit=%v", ErrBadCapacity, cfg.SlotMHz, cfg.CUnit)
	}
	stations := make([]BaseStation, len(cfg.Stations))
	copy(stations, cfg.Stations)
	for i := range stations {
		stations[i].ID = i
		if stations[i].CapacityMHz <= 0 {
			return nil, fmt.Errorf("%w: station %d capacity %v", ErrBadCapacity, i, stations[i].CapacityMHz)
		}
		if stations[i].SpeedFactor == 0 {
			stations[i].SpeedFactor = 1
		}
		if stations[i].SpeedFactor < 0 {
			return nil, fmt.Errorf("%w: station %d speed factor %v", ErrBadCapacity, i, stations[i].SpeedFactor)
		}
	}
	n := &Network{
		stations: stations,
		topo:     cfg.Topo,
		ap:       cfg.Topo.Graph.AllPairsShortestPaths(),
		slotMHz:  cfg.SlotMHz,
		cUnit:    cfg.CUnit,
	}
	n.byDelay = make([]int, 0, len(stations)*len(stations))
	for from := range stations {
		n.byDelay = append(n.byDelay, from)
		start := len(n.byDelay)
		for i := range stations {
			if i != from {
				n.byDelay = append(n.byDelay, i)
			}
		}
		// Stable: stations at equal delay keep index order.
		slices.SortStableFunc(n.byDelay[start:], func(a, b int) int {
			return cmp.Compare(n.ap.Dist(from, a), n.ap.Dist(from, b))
		})
	}
	return n, nil
}

// NumStations returns |BS|.
func (n *Network) NumStations() int { return len(n.stations) }

// Station returns the i-th base station.
func (n *Network) Station(i int) (BaseStation, error) {
	if i < 0 || i >= len(n.stations) {
		return BaseStation{}, fmt.Errorf("%w: %d", ErrBadStation, i)
	}
	return n.stations[i], nil
}

// Stations returns a copy of all base stations.
func (n *Network) Stations() []BaseStation {
	out := make([]BaseStation, len(n.stations))
	copy(out, n.stations)
	return out
}

// Capacity returns the effective capacity C(bs_i) in MHz: the nominal
// capacity times the station's current capacity scale. Every scheduler,
// LP row, and audit reads capacity through this accessor, so an outage
// applied via SetCapacityScale is visible to all of them at once.
func (n *Network) Capacity(i int) float64 {
	c := n.stations[i].CapacityMHz
	if n.capScale != nil {
		c *= n.capScale[i]
	}
	return c
}

// CapacityScale returns station i's current capacity multiplier (1 when
// never set).
func (n *Network) CapacityScale(i int) float64 {
	if n.capScale == nil {
		return 1
	}
	return n.capScale[i]
}

// SetCapacityScale sets station i's capacity multiplier in [0, 1]: 0 is a
// full outage, 1 restores nominal capacity. It must not be called
// concurrently with capacity readers; the simulation engine applies
// outage transitions between slots.
func (n *Network) SetCapacityScale(i int, scale float64) error {
	if i < 0 || i >= len(n.stations) {
		return fmt.Errorf("%w: %d", ErrBadStation, i)
	}
	if scale < 0 || scale > 1 || scale != scale {
		return fmt.Errorf("%w: station %d capacity scale %v out of [0, 1]", ErrBadCapacity, i, scale)
	}
	if n.capScale == nil {
		if scale == 1 {
			return nil
		}
		n.capScale = make([]float64, len(n.stations))
		for j := range n.capScale {
			n.capScale[j] = 1
		}
	}
	n.capScale[i] = scale
	return nil
}

// ResetCapacityScales restores every station to nominal capacity.
func (n *Network) ResetCapacityScales() { n.capScale = nil }

// SlotMHz returns the resource-slot size C_l.
func (n *Network) SlotMHz() float64 { return n.slotMHz }

// CUnit returns the MHz consumed per MB/s of data rate.
func (n *Network) CUnit() float64 { return n.cUnit }

// NumSlots returns L = floor(C(bs_i)/C_l) for station i, using the
// effective (outage-scaled) capacity.
func (n *Network) NumSlots(i int) int {
	return int(n.Capacity(i) / n.slotMHz)
}

// SlotRate converts l resource slots of station capacity into the maximum
// data rate they can process: l*C_l/C_unit MB/s.
func (n *Network) SlotRate(l int) float64 {
	return float64(l) * n.slotMHz / n.cUnit
}

// RateToMHz converts a data rate into its computing demand rho*C_unit.
func (n *Network) RateToMHz(rate float64) float64 { return rate * n.cUnit }

// Quantum is the grid every occupancy ledger lives on: 2⁻²⁰ (MHz, or ms
// for the backlog proxy). A multiple of it below 2³³ has at most 53
// significant bits, so float64 adds and subtracts such values exactly. A
// ledger that books and releases only multiples of Quantum therefore holds
// the same value whatever order its entries come and go in, and returns to
// exactly 0 once all are released.
const Quantum = 1.0 / (1 << 20)

// Quantize rounds v to the nearest multiple of Quantum.
func Quantize(v float64) float64 { return math.Round(v/Quantum) * Quantum }

// QuantizeDown rounds v down to a multiple of Quantum.
func QuantizeDown(v float64) float64 { return math.Floor(v/Quantum) * Quantum }

// TaskMHz returns the realized MHz task k of r holds on its station when
// r's stream runs at data rate rate: RateToMHz(rate)·w_k/W, with w_k the
// task's WorkMS and W the pipeline's total (equal shares when W is 0),
// quantized. Every ledger books and releases exactly these shares.
func (n *Network) TaskMHz(r *Request, k int, rate float64) float64 {
	return n.TaskMHzOfWork(r, k, rate, r.WorkMS())
}

// TaskMHzOfWork is TaskMHz for a caller that has summed W = r.WorkMS()
// once for a loop over r's tasks.
func (n *Network) TaskMHzOfWork(r *Request, k int, rate, work float64) float64 {
	share := 1.0 / float64(len(r.Tasks))
	if work > 0 {
		share = r.Tasks[k].WorkMS / work
	}
	return Quantize(n.RateToMHz(rate) * share)
}

// RequestMHz returns Σ_k TaskMHz(r, k, rate): what r books on a station
// that runs all of its tasks.
func (n *Network) RequestMHz(r *Request, rate float64) float64 {
	work, sum := r.WorkMS(), 0.0
	for k := range r.Tasks {
		sum += n.TaskMHzOfWork(r, k, rate, work)
	}
	return sum
}

// OneWayDelayMS returns the shortest-path one-way transmission delay of
// rho_unit data between stations u and v (0 when u == v, +Inf when
// disconnected).
func (n *Network) OneWayDelayMS(u, v int) float64 {
	if u == v {
		return 0
	}
	return n.ap.Dist(u, v)
}

// RoundTripDelayMS is Eq. (2)'s transmission term: 2 * sum of per-link
// delays along the shortest path p_ji.
func (n *Network) RoundTripDelayMS(u, v int) float64 {
	return 2 * n.OneWayDelayMS(u, v)
}

// NearestStation returns the station closest (in backhaul delay) to "from"
// among candidates, excluding "from" itself. Used by algorithm Heu to
// migrate a task "to the closest base station" (Algorithm 2 step 13).
func (n *Network) NearestStation(from int, candidates []int) (int, float64) {
	return n.ap.Nearest(from, candidates)
}

// NeighborsByDistance returns all other stations sorted by ascending
// backhaul delay from the given station, equal delays in index order. The
// slice is shared and computed once per network: callers must not modify
// it.
func (n *Network) NeighborsByDistance(from int) []int {
	k := len(n.stations)
	return n.byDelay[from*k+1 : (from+1)*k : (from+1)*k]
}

// Reach returns the stations a request entering the network at access
// could still be served on within deadlineMS after waitMS of waiting,
// judged on transmission alone: access itself, then
// NeighborsByDistance(access) up to the first station i with
// waitMS + RoundTripDelayMS(access, i) > deadlineMS. Pass waitMS as
// float64(waitSlots)*slotLengthMS, the term Request.DelayFeasible adds.
//
// The list is nearest first and holds every delay-feasible station: the
// stations are sorted by round trip and float addition is monotone, so
// once the round trip alone overshoots the deadline at one station it does
// at every later one; processing delay is never negative (NewNetwork
// rejects negative speed factors, Request.Validate negative work), so
// Eq. (2)'s delay overshoots wherever the round trip alone does; and a NaN
// or +Inf deadline never cuts. Being monotone along the list, the cut is
// found by binary search. The slice is shared: callers must not modify it.
func (n *Network) Reach(access int, waitMS, deadlineMS float64) []int {
	k := len(n.stations)
	order := n.byDelay[access*k : (access+1)*k]
	cut := sort.Search(k, func(p int) bool {
		return waitMS+n.RoundTripDelayMS(access, order[p]) > deadlineMS
	})
	return order[:cut:cut]
}

// Edges returns the backhaul links with their per-unit delays (ms).
func (n *Network) Edges() []graph.Edge { return n.topo.Graph.Edges() }

// NodePositions returns the stations' generated coordinates on the unit
// square (cosmetic; used for plotting and serialization).
func (n *Network) NodePositions() []topology.Node {
	out := make([]topology.Node, len(n.topo.Nodes))
	copy(out, n.topo.Nodes)
	return out
}

// TotalCapacity returns the sum of effective station capacities in MHz.
func (n *Network) TotalCapacity() float64 {
	total := 0.0
	for i := range n.stations {
		total += n.Capacity(i)
	}
	return total
}

// RandomNetwork builds a paper-default network: numStations base stations
// on a Waxman topology, capacities uniform in [minCapMHz, maxCapMHz], and
// speed factors uniform in [0.8, 1.2].
func RandomNetwork(numStations int, minCapMHz, maxCapMHz float64, rng *rand.Rand) (*Network, error) {
	topo, err := topology.Waxman(topology.Config{N: numStations}, rng)
	if err != nil {
		return nil, err
	}
	stations := make([]BaseStation, numStations)
	for i := range stations {
		stations[i] = BaseStation{
			CapacityMHz: minCapMHz + rng.Float64()*(maxCapMHz-minCapMHz),
			SpeedFactor: 0.8 + rng.Float64()*0.4,
		}
	}
	return NewNetwork(NetworkConfig{Stations: stations, Topo: topo})
}
