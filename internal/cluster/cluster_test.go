package cluster_test

// The cluster correctness contract: sharding must be invisible in the
// decision stream. These tests replay island traces — topologies whose
// backhaul components match the partition, so every request's candidate
// set lives inside one shard — through 1-, 2-, and 8-shard clusters and
// require decision-for-decision parity (oracle.DiffCluster), plus the
// composable-checkpoint contract: a manifest written at N shards must
// restore at M shards without losing a request.
//
// Parity traces are built so scheduling is rng-independent: explicit
// single-outcome specs (realization has one support point) and
// RoundingDenominator 1 with one request per slot (the per-component LP
// has an integral vertex, so the rounding draw cannot change the
// landing). That leaves the couplings the cluster must actually
// preserve — pending sets, free capacity, threshold-bandit feedback —
// as the only parity surface.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
)

// islandNetwork builds `islands` disconnected backhaul components of
// `per` stations each (a chain inside every island), 3200 MHz per
// station. Disconnected components have infinite backhaul delay between
// them, so every request's candidate set stays inside its island — the
// partition-respecting topology the parity contract is stated for.
func islandNetwork(t testing.TB, islands, per int) *mec.Network {
	t.Helper()
	n := islands * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i%per) * 0.01, Y: float64(i/per) * 0.1}
		stations[i] = mec.BaseStation{CapacityMHz: 3200, SpeedFactor: 1}
	}
	for isl := 0; isl < islands; isl++ {
		base := isl * per
		for k := 1; k < per; k++ {
			if _, err := g.AddEdge(base+k-1, base+k, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: stations,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// islandTrace emits an NDJSON trace activating one island per slot in
// rotation: slot t submits one explicit single-outcome request at
// island (t mod islands) with an integer reward, then `tail` idle slots
// drain the last streams. Integer rewards make cross-shard float sums
// exact; DurationSlots 2 with rotation period `islands` leaves every
// island idle when its turn comes back.
func islandTrace(islands, per, slots int) string {
	var b strings.Builder
	for t := 0; t < slots; t++ {
		isl := t % islands
		reward := 100 + (t*37)%400
		fmt.Fprintf(&b, `{"accessStation":%d,"durationSlots":2,"outcomes":[{"rateMBs":40,"prob":1,"reward":%d}]}`+"\n",
			isl*per, reward)
		b.WriteString("\n")
	}
	for i := 0; i < 8; i++ {
		b.WriteString("\n")
	}
	return b.String()
}

func parityConfig(net *mec.Network, shards int) cluster.Config {
	return cluster.Config{
		Net:       net,
		Shards:    shards,
		DynamicRR: sim.DynamicRROptions{RoundingDenominator: 1},
		Seed:      7,
	}
}

// TestClusterParity is the tentpole proof: 1-shard vs N-shard clusters
// replay the same island trace decision-for-decision identically, for
// N = 2 and N = 8 (one island per shard). Run under -race in CI's
// cluster-parity job.
func TestClusterParity(t *testing.T) {
	const islands, per = 8, 2
	net := islandNetwork(t, islands, per)
	trace := islandTrace(islands, per, 64)
	err := oracle.DiffCluster(func(shards int) (*oracle.ReplayDump, error) {
		return cluster.ReplayDump(parityConfig(net, shards), trace)
	}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPartitionComponents pins the partition rule: whole components,
// ascending min-station order, greedy capacity balance; contiguous
// chunks only when shards outnumber components.
func TestPartitionComponents(t *testing.T) {
	net := islandNetwork(t, 4, 3)
	parts, err := cluster.Partition(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(parts))
	}
	// Equal capacities: greedy assignment alternates islands 0,1,2,3
	// over the two shards.
	want := [][]int{{0, 1, 2, 6, 7, 8}, {3, 4, 5, 9, 10, 11}}
	for k := range want {
		if fmt.Sprint(parts[k]) != fmt.Sprint(want[k]) {
			t.Fatalf("part %d = %v, want %v", k, parts[k], want[k])
		}
	}
	// No island may be split when components >= shards.
	for _, parts := range [][][]int{parts} {
		for _, p := range parts {
			for _, st := range p {
				island := st / 3
				base := island * 3
				found := 0
				for _, q := range p {
					if q >= base && q < base+3 {
						found++
					}
				}
				if found != 3 {
					t.Fatalf("island %d split across shards: part %v", island, p)
				}
			}
		}
	}
	// More shards than components: contiguous chunks, every part
	// non-empty.
	parts, err = cluster.Partition(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Fatalf("got %d parts, want 5", len(parts))
	}
	seen := 0
	for _, p := range parts {
		if len(p) == 0 {
			t.Fatalf("empty part in %v", parts)
		}
		seen += len(p)
	}
	if seen != 12 {
		t.Fatalf("parts cover %d stations, want 12", seen)
	}
}

// TestShardNetwork pins the network a shard schedules over: every station
// under its own id; each pair of owned stations at the delay the subgraph
// induced by the shard's stations gives it, bit for bit; every other
// station masked — no capacity, on no owned station's reach; and at one
// shard the configured network itself.
func TestShardNetwork(t *testing.T) {
	mesh, err := mec.RandomNetwork(20, 3000, 3600, rnd.New(42, "topology"))
	if err != nil {
		t.Fatal(err)
	}
	islands := islandNetwork(t, 4, 3)
	for _, tc := range []struct {
		name   string
		net    *mec.Network
		shards int
	}{
		{"mesh at 2 shards", mesh, 2},
		{"mesh at 4 shards", mesh, 4},
		{"islands at 2 shards", islands, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := cluster.New(cluster.Config{Net: tc.net, Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Stop() }()
			parts, err := cluster.Partition(tc.net, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			for k, part := range parts {
				sn, err := c.ShardNetwork(k)
				if err != nil {
					t.Fatal(err)
				}
				if sn == tc.net || sn.NumStations() != tc.net.NumStations() {
					t.Fatalf("shard %d: got the configured network itself or %d stations, want a copy of all %d", k, sn.NumStations(), tc.net.NumStations())
				}
				local := make(map[int]int, len(part))
				for l, st := range part {
					local[st] = l
				}
				induced := graph.New(len(part))
				for _, e := range tc.net.Edges() {
					lu, okU := local[e.U]
					lv, okV := local[e.V]
					if okU && okV {
						if _, err := induced.AddEdge(lu, lv, e.Weight); err != nil {
							t.Fatal(err)
						}
					}
				}
				dist := induced.Distances()
				for lu, u := range part {
					if sn.Capacity(u) != tc.net.Capacity(u) {
						t.Fatalf("shard %d: owned station %d has capacity %v, want %v", k, u, sn.Capacity(u), tc.net.Capacity(u))
					}
					for lv, v := range part {
						want := dist[lu*len(part)+lv]
						if got := sn.OneWayDelayMS(u, v); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("shard %d: delay %d->%d is %v, want %v over the induced subgraph", k, u, v, got, want)
						}
					}
					for _, st := range sn.Reach(u, 0, 1e9) {
						if _, ok := local[st]; !ok {
							t.Fatalf("shard %d: masked station %d is on owned station %d's reach", k, st, u)
						}
					}
				}
				for st := 0; st < tc.net.NumStations(); st++ {
					if _, ok := local[st]; !ok && sn.Capacity(st) != 0 {
						t.Fatalf("shard %d: masked station %d has capacity %v, want 0", k, st, sn.Capacity(st))
					}
				}
			}
		})
	}
	c, err := cluster.New(cluster.Config{Net: mesh})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()
	if sn, err := c.ShardNetwork(0); err != nil || sn != mesh {
		t.Fatalf("one shard schedules over %p (err %v), want the configured network %p", sn, err, mesh)
	}
}

// TestClusterCheckpointReshard proves the manifest is shard-count
// agnostic: a 2-shard cluster checkpoints mid-trace with streams in
// service and live pending requests, its shard checkpoints naming only
// stations of their own part, then 1- and 4-shard clusters restore from the same
// manifest without losing a single live request.
func TestClusterCheckpointReshard(t *testing.T) {
	const islands, per = 4, 2
	net := islandNetwork(t, islands, per)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "cluster.json")

	cfg := parityConfig(net, 2)
	cfg.CheckpointPath = manifest
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	// One stream per island enters service...
	for isl := 0; isl < islands; isl++ {
		if _, _, err := c.Submit(serve.RequestSpec{
			AccessStation: isl*per + 1,
			DurationSlots: 4,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 500}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	// ...then one request per island that is never ticked: it is still
	// pending when the manifest is written.
	var ids []uint64
	for isl := 0; isl < islands; isl++ {
		id, _, err := c.Submit(serve.RequestSpec{
			AccessStation: isl * per,
			DurationSlots: 2,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 500}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.Stop(); err != nil { // writes the final manifest
		t.Fatal(err)
	}
	<-c.Done()
	if streams := ownStationsOnly(t, manifest); streams != islands {
		t.Fatalf("the 2-shard generation holds %d streams, want %d", streams, islands)
	}

	for _, shards := range []int{1, 4} {
		// Each restore gets its own copy of the original manifest (and
		// shard snapshots): restored clusters write their OWN manifest on
		// Stop, which must not clobber the source of the next restore.
		rdir := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(rdir, ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rcfg := parityConfig(net, shards)
		rcfg.CheckpointPath = filepath.Join(rdir, filepath.Base(manifest))
		rc, err := cluster.New(rcfg)
		if err != nil {
			t.Fatalf("restore at %d shards: %v", shards, err)
		}
		rc.Start()
		for _, id := range ids {
			rec, ok, err := rc.Status(id)
			if err != nil {
				t.Fatalf("restore at %d shards: status %d: %v", shards, id, err)
			}
			if !ok {
				t.Fatalf("restore at %d shards: request %d lost", shards, id)
			}
			if rec.State != serve.StatePending {
				t.Fatalf("restore at %d shards: request %d in state %q, want pending", shards, id, rec.State)
			}
			if rec.ID != id {
				t.Fatalf("restore at %d shards: record id %d, want %d", shards, rec.ID, id)
			}
		}
		// The restored cluster must still schedule: tick until the
		// restored requests settle.
		for i := 0; i < 12; i++ {
			if err := rc.Tick(); err != nil {
				t.Fatalf("restore at %d shards: tick: %v", shards, err)
			}
		}
		settled := 0
		for _, id := range ids {
			rec, ok, err := rc.Status(id)
			if err != nil || !ok {
				t.Fatalf("restore at %d shards: post-tick status %d: ok=%v err=%v", shards, id, ok, err)
			}
			if rec.State != serve.StatePending {
				settled++
			}
		}
		if settled != len(ids) {
			t.Fatalf("restore at %d shards: only %d/%d restored requests settled", shards, settled, len(ids))
		}
		if err := rc.Stop(); err != nil {
			t.Fatalf("restore at %d shards: stop: %v", shards, err)
		}
		<-rc.Done()
	}
}

// ownStationsOnly checks that every shard checkpoint of the manifest at
// path names only stations of that shard's part, in the network's station ids:
// the requests' access stations and the streams' shares and processing
// stations. It returns how many streams the checkpoints hold.
func ownStationsOnly(t *testing.T, path string) (streams int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var man cluster.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	for _, sh := range man.Shards {
		owned := make(map[int]bool, len(sh.Stations))
		for _, st := range sh.Stations {
			owned[st] = true
		}
		ck := sh.Checkpoint
		for _, cr := range ck.Requests {
			if !owned[cr.Spec.AccessStation] {
				t.Fatalf("shard %d (stations %v): request %d accesses station %d", sh.Index, sh.Stations, cr.ExternalID, cr.Spec.AccessStation)
			}
		}
		for _, rs := range ck.Running {
			named := []int{rs.ProcStation}
			for st := range rs.Shares {
				named = append(named, st)
			}
			for st := range rs.ExpShares {
				named = append(named, st)
			}
			for _, st := range named {
				if !owned[st] {
					t.Fatalf("shard %d (stations %v): stream %d names station %d", sh.Index, sh.Stations, rs.Request, st)
				}
			}
		}
		streams += len(ck.Running)
	}
	return streams
}

// TestClusterHandlerMetrics pins the one /metrics page: the per-shard
// labeled series of a 4-shard cluster; then, at one shard and at three,
// a well-formed page with every per-shard series present once per shard,
// every global station once, and the union of what the single-engine
// page used to carry (component solves, slot errors,
// saturation, door depth, station capacity) now under a shard
// label. A stopped cluster still renders.
func TestClusterHandlerMetrics(t *testing.T) {
	net := islandNetwork(t, 4, 2)
	c, err := cluster.New(parityConfig(net, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()

	if _, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 0,
		Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 400}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	got := scrape(t, c)
	for _, want := range []string{
		`arserved_cluster_shards 4`,
		`arserved_cluster_requests_total{shard="0",result="submitted"} 1`,
		`arserved_cluster_requests_total{shard="3",result="submitted"} 0`,
		`arserved_cluster_slot_duration_ms_count{shard="2"}`,
		`arserved_cluster_routed_total{path="fast"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net := islandNetwork(t, 3, 2)
			c, err := cluster.New(parityConfig(net, shards))
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer func() { _ = c.Stop() }()
			// Two busy slots, so the decision cache has counted.
			for slot := 0; slot < 2; slot++ {
				for st := 0; st < 6; st++ {
					if _, _, err := c.Submit(serve.RequestSpec{AccessStation: st, DurationSlots: 3}); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			text := scrape(t, c)
			samples, types := parseExposition(t, text)

			for _, family := range []string{
				"requests_total", "reward_dollars_total", "ticks_total", "slot_errors_total",
				"pending_requests", "active_streams", "batches_total", "batch_requests_total",
				"saturated_total", "intake_depth", "slot_duration_ms", "intake_latency_ms",
				"component_solves_total", "station_used_mhz",
				"station_capacity_mhz", "shards", "slot", "routed_total", "checkpoints_total",
				"checkpoints_dropped_total",
			} {
				if types["arserved_cluster_"+family] == "" {
					t.Errorf("family arserved_cluster_%s missing", family)
				}
			}
			for _, want := range []string{`result="rejected"`, `result="departed"`, `path="clean"`, `path="lp"`} {
				if !strings.Contains(text, want) {
					t.Errorf("exposition has no %s series", want)
				}
			}

			// Group the labeled series by everything but the shard: each
			// must appear exactly once per shard. Station gauges belong to
			// one shard each, so there every GLOBAL station appears once.
			perSeries := map[string]map[string]int{}
			stations := map[string]map[string]int{}
			for _, s := range samples {
				shard, ok := s.labels["shard"]
				if !ok {
					continue
				}
				if st, ok := s.labels["station"]; ok {
					if stations[s.name] == nil {
						stations[s.name] = map[string]int{}
					}
					stations[s.name][st]++
					continue
				}
				var rest []string
				for k, v := range s.labels {
					if k != "shard" {
						rest = append(rest, k+"="+v)
					}
				}
				sort.Strings(rest)
				key := s.name + "{" + strings.Join(rest, ",") + "}"
				if perSeries[key] == nil {
					perSeries[key] = map[string]int{}
				}
				perSeries[key][shard]++
			}
			if len(perSeries) < 30 {
				t.Fatalf("only %d per-shard series parsed", len(perSeries))
			}
			for key, byShard := range perSeries {
				for k := 0; k < shards; k++ {
					if n := byShard[strconv.Itoa(k)]; n != 1 {
						t.Errorf("series %s has %d samples for shard %d, want 1", key, n, k)
					}
				}
				if len(byShard) != shards {
					t.Errorf("series %s spans shards %v, want exactly %d", key, byShard, shards)
				}
			}
			for _, name := range []string{"arserved_cluster_station_used_mhz", "arserved_cluster_station_capacity_mhz"} {
				for st := 0; st < 6; st++ {
					if n := stations[name][strconv.Itoa(st)]; n != 1 {
						t.Errorf("%s has %d samples for station %d, want 1", name, n, st)
					}
				}
			}

			// A stopped cluster still renders a well-formed page.
			if err := c.Stop(); err != nil {
				t.Fatal(err)
			}
			parseExposition(t, scrape(t, c))
		})
	}

	// The zero-value scheduler. The component-solve family is rendered
	// from the first scrape on, before anything was solved. Then the same
	// wave every slot: a component files its solve at the second sighting
	// and replays from the third, so path="clean" counts. Twelve slots,
	// because a slot whose draws can round nothing looks nothing up: the
	// first replay comes at the eighth.
	def, err := cluster.New(cluster.Config{Net: islandNetwork(t, 2, 2), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	def.Start()
	defer func() { _ = def.Stop() }()
	for _, path := range []string{"clean", "lp"} {
		if want := fmt.Sprintf(`arserved_cluster_component_solves_total{shard="0",path=%q} 0`, path); !strings.Contains(scrape(t, def), want+"\n") {
			t.Errorf("idle exposition missing %q", want)
		}
	}
	for slot := 0; slot < 12; slot++ {
		for st := 0; st < 4; st += 2 {
			if _, _, err := def.Submit(serve.RequestSpec{
				AccessStation: st,
				DurationSlots: 1,
				Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 400}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := def.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	text := scrape(t, def)
	if !regexp.MustCompile(`arserved_cluster_component_solves_total\{shard="0",path="clean"\} [1-9]`).MatchString(text) {
		t.Errorf("no clean component replays after a repeated wave:\n%s", text)
	}
}

func scrape(t *testing.T, c *cluster.Cluster) string {
	t.Helper()
	var b strings.Builder
	if err := c.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// promSample is one parsed sample line of a text exposition.
type promSample struct {
	name   string
	labels map[string]string
}

// parseExposition checks a scrape against the Prometheus text format —
// every line is a HELP, a TYPE or a well-formed sample; every family has
// exactly one HELP and one TYPE, ahead of its samples — and returns the
// samples and each family's type.
func parseExposition(t *testing.T, text string) ([]promSample, map[string]string) {
	t.Helper()
	var (
		sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
		labelRE  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="([^"\\]*)"$`)
		helps    = map[string]int{}
		types    = map[string]string{}
		samples  []promSample
	)
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if help == "" {
				t.Fatalf("line %d: HELP without text: %q", i+1, line)
			}
			helps[name]++
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: second TYPE for %s", i+1, name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", i+1, typ)
			}
			types[name] = typ
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is not a sample: %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("line %d: value %q: %v", i+1, m[3], err)
		}
		s := promSample{name: m[1], labels: map[string]string{}}
		if m[2] != "" {
			for _, kv := range strings.Split(m[2], ",") {
				lm := labelRE.FindStringSubmatch(kv)
				if lm == nil {
					t.Fatalf("line %d: bad label %q", i+1, kv)
				}
				s.labels[lm[1]] = lm[2]
			}
		}
		family := s.name
		if types[family] == "" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(s.name, suffix); ok && types[base] == "histogram" {
					family = base
				}
			}
		}
		if types[family] == "" {
			t.Fatalf("line %d: sample %s precedes its family's TYPE", i+1, s.name)
		}
		samples = append(samples, s)
	}
	for name := range types {
		if helps[name] != 1 {
			t.Fatalf("family %s has %d HELP lines, want 1", name, helps[name])
		}
	}
	for name, n := range helps {
		if _, ok := types[name]; !ok || n != 1 {
			t.Fatalf("family %s: %d HELP lines, TYPE present: %v", name, n, ok)
		}
	}
	return samples, types
}
