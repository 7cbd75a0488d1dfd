package netsim

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/workload"
)

// dropBudgetPerBatch bounds the resend attempts of one channel at this
// many transmissions per logical batch: under any admissible drop rate
// the expected attempt count is far below it, so hitting the budget
// means the fault pattern is effectively severing the channel — the
// run then fails with a structured *fault.ExcessiveLossError instead
// of simulating (bounded but absurdly long) retry storms.  Only faulty
// runs enforce it; a healthy run's resends (purification failures) are
// governed by PurifyFailureRate < 1 alone, exactly as before the fault
// layer.
const dropBudgetPerBatch = 1000

// channel sets up a quantum channel from src to dst and teleports a
// logical qubit across it, calling done when the data has arrived.
//
// Pipeline per batch of 2^PurifyDepth pairs (one purified output):
//
//	for each hop: [storage credit at next tile] -> [link pairs from the
//	G node] -> [turn penalty if changing axis] -> [teleporter from the
//	directional set] -> next hop
//	then: [corrector] -> [queue purifier at both endpoints] -> output
//
// When all numBatches outputs are ready, the logical qubit's physical
// qubits teleport over (in parallel, one delivered pair each).
func (s *simulator) channel(src, dst mesh.Coord, done func()) {
	if s.err != nil {
		return // aborted run: issue nothing more, let the engine drain
	}
	if src == dst {
		s.localOps++
		done()
		return
	}
	s.channels++

	// The routing policy decides the hop path at setup time; adaptive
	// policies see the routers' live loads through the loads adapter.
	// Deterministic policies answer repeated (src, dst) pairs from the
	// per-run route cache, skipping the policy call, the Follow
	// validation walk and both slice allocations.  (The cache is scoped
	// to one run, hence to one materialized fault pattern, so caching
	// fault-aware routes is sound.)
	srcIdx, dstIdx := s.cfg.Grid.Index(src), s.cfg.Grid.Index(dst)
	var dirs []mesh.Direction
	var tiles []mesh.Coord
	if s.routes != nil {
		dirs, tiles = s.routes.get(srcIdx, dstIdx)
	}
	if dirs == nil {
		var err error
		dirs, err = s.routeChannel(src, dst)
		if err != nil {
			// A structured routing failure on the faulty mesh (blocked
			// path, partition): abort the run cleanly.
			s.fail(err)
			return
		}
		tiles, err = s.cfg.Grid.Follow(src, dirs)
		if err != nil {
			panic(err) // a policy that walks off the mesh is a policy bug
		}
		if tiles[len(tiles)-1] != dst {
			panic(fmt.Sprintf("netsim: policy %q routed %v to %v, want %v",
				s.policy.Name(), src, tiles[len(tiles)-1], dst))
		}
		if s.routes != nil {
			s.routes.put(srcIdx, dstIdx, dirs, tiles)
		}
	}

	ch := &channelRun{
		sim:   s,
		src:   src,
		dst:   dst,
		start: s.engine.Now(),
		done:  done,
	}
	ch.base = batchFlight{ch: ch, dirs: dirs, tiles: tiles}
	if s.faults != nil {
		ch.budget = dropBudgetPerBatch * uint64(s.numBatches)
	}
	for b := 0; b < s.numBatches; b++ {
		ch.startBatch()
	}
}

// routeChannel resolves one channel's hop path under the run's fault
// model.  A fault-aware policy routes on the live topology (and may
// return a structured *fault.UnreachableError on a partitioned pair);
// any other policy keeps its fault-oblivious path, which is then
// validated link by link — a path crossing a dead link is a structured
// *fault.RouteBlockedError, never a silent teleport across a hole.
func (s *simulator) routeChannel(src, dst mesh.Coord) ([]mesh.Direction, error) {
	if fa, ok := s.policy.(route.FaultAware); ok && s.faults != nil {
		return fa.RouteFaulty(s.cfg.Grid, src, dst, s.faults, loads{s})
	}
	dirs, err := s.policy.Route(s.cfg.Grid, src, dst, loads{s})
	if err != nil {
		panic(err) // placements are validated against the grid
	}
	if s.faults != nil && s.faults.HasDeadLinks() {
		cur := src
		for _, d := range dirs {
			if s.faults.Dead(cur, d) {
				return nil, &fault.RouteBlockedError{Src: src, Dst: dst, At: cur, Policy: s.policy.Name()}
			}
			cur = cur.Step(d)
		}
	}
	return dirs, nil
}

// channelRun tracks one channel's in-flight batches.
type channelRun struct {
	sim      *simulator
	src, dst mesh.Coord
	// base is the channel's setup-time path, shared read-only by every
	// batch that follows it; resent batches of an adaptive policy may
	// fly a fresher path (see resend).
	base    batchFlight
	outputs int
	start   time.Duration // setup time, for the channel latency tally
	done    func()
	// attempts counts batch transmissions (initial sends plus drop and
	// purification resends); budget caps them on a faulty mesh (0 = no
	// cap, the healthy-mesh behavior).
	attempts uint64
	budget   uint64
	finished bool
}

// batchFlight is the path one batch flies: a dirs/tiles pair the hop
// chain indexes into.  It is immutable once built — in-flight batches
// release storage by indexing their own path, so a path is never
// mutated while any batch references it.  All initial batches share
// the channel's base flight; only adaptive-policy resends allocate a
// fresh one.
type batchFlight struct {
	ch    *channelRun
	dirs  []mesh.Direction
	tiles []mesh.Coord
}

// batch is the record of one in-flight batch: where it is on its
// flight and what it holds.  Each pipeline stage is a package-level
// continuation that receives the record as its argument — the call
// form of sim.Semaphore.Acquire, sim.Resource.Serve and
// sim.Engine.ScheduleCall — so moving a batch through a hop captures
// no closure.  A record lives from the batch's send to its purified
// output, drop or purification failure, then returns to the
// simulator's free list (a replacement batch takes a fresh record).
type batch struct {
	f *batchFlight
	// hop indexes the link being crossed, f.tiles[hop] -> f.tiles[hop+1].
	hop int
	// link is that link's canonical mesh.Grid.LinkIndex.
	link int
	// store is the storage semaphore at f.tiles[hop+1] the batch holds
	// (or waits for) a credit of; after the last hop it is the arrival
	// storage, released as the batch drains into the purifiers.
	store *sim.Semaphore
	// lo and hi are the endpoint tiles' purifier indices, in the
	// canonical order they are acquired in.
	lo, hi int
	next   *batch // free-list link
}

// newBatch takes a record off the free list (or mints one) for a batch
// about to fly f from its first hop.
func (s *simulator) newBatch(f *batchFlight) *batch {
	b := s.freeBatches
	if b != nil {
		s.freeBatches = b.next
		b.next = nil
	} else {
		b = new(batch)
	}
	b.f = f
	return b
}

// freeBatch returns a finished batch's record to the free list.
func (s *simulator) freeBatch(b *batch) {
	*b = batch{next: s.freeBatches}
	s.freeBatches = b
}

func (ch *channelRun) startBatch() {
	s := ch.sim
	if s.err != nil {
		return
	}
	if !ch.admit() {
		return
	}
	s.hop(s.newBatch(&ch.base))
}

// admit counts one batch transmission against the resend budget,
// failing the run with a structured error once a faulty mesh exhausts
// it.
func (ch *channelRun) admit() bool {
	ch.attempts++
	if ch.budget > 0 && ch.attempts > ch.budget {
		ch.sim.fail(&fault.ExcessiveLossError{
			Src:      ch.src,
			Dst:      ch.dst,
			Attempts: ch.attempts - 1,
		})
		return false
	}
	return true
}

// resend injects a replacement batch after a drop or a purification
// failure.  This is where the stale-load fix lives: an adaptive policy
// (one without a route cache) re-routes the replacement with the
// routers' *current* loads — the congestion that built up since channel
// setup, read through the same counters the tracer samples — instead of
// replaying a path chosen from a snapshot that may be long stale.
// Deterministic policies re-fly the cached path unchanged, and healthy
// deterministic runs never resend at all, so their results stay
// byte-identical to the pre-fix simulator.  If re-routing fails (e.g. a
// transiently blocked faulty path), the batch falls back to the
// channel's validated setup-time path.
func (ch *channelRun) resend() {
	s := ch.sim
	if s.err != nil {
		return
	}
	if !ch.admit() {
		return
	}
	f := &ch.base
	if s.routes == nil {
		if nf := ch.reroute(); nf != nil {
			f = nf
		}
	}
	if t := s.cfg.Trace; t != nil {
		li := s.cfg.Grid.LinkIndex(s.cfg.Grid.LinkFrom(f.tiles[0], f.dirs[0]))
		t.RecordResend(s.engine.Now(), li)
	}
	s.hop(s.newBatch(f))
}

// reroute resolves a fresh path for a replacement batch under the live
// loads, or nil to keep the setup-time path.  All shipped adaptive
// policies are minimal, so the fresh path's hop count (and with it the
// batch's purification and delivery latencies) matches the original.
func (ch *channelRun) reroute() *batchFlight {
	s := ch.sim
	dirs, err := s.routeChannel(ch.src, ch.dst)
	if err != nil {
		return nil
	}
	tiles, err := s.cfg.Grid.Follow(ch.src, dirs)
	if err != nil || tiles[len(tiles)-1] != ch.dst {
		return nil
	}
	return &batchFlight{ch: ch, dirs: dirs, tiles: tiles}
}

// hop starts the batch across the link from f.tiles[b.hop] to
// f.tiles[b.hop+1] by taking a storage credit at the receiving T' node,
// where traffic arrives from the opposite direction of travel.
func (s *simulator) hop(b *batch) {
	f := b.f
	b.store = s.nodes[s.cfg.Grid.Index(f.tiles[b.hop+1])].Storage(f.dirs[b.hop].Opposite())
	b.store.Acquire(batchStored, b)
}

// batchStored runs once the batch holds storage at the next tile: it
// takes link pairs from the G node of the crossed link, a dense-slice
// lookup via the canonical link index.
func batchStored(a any) {
	b := a.(*batch)
	s := b.f.ch.sim
	b.link = s.cfg.Grid.LinkIndex(s.cfg.Grid.LinkFrom(b.f.tiles[b.hop], b.f.dirs[b.hop]))
	s.gnodes[b.link].Serve(s.genLat, batchGenerated, b)
}

// batchGenerated runs once the link pairs exist: the batch takes the
// teleporter set of the sending node's travel axis, plus a turn penalty
// when the route changes axis at this node.
func batchGenerated(a any) {
	b := a.(*batch)
	f := b.f
	s := f.ch.sim
	dir := f.dirs[b.hop]
	node := s.nodes[s.cfg.Grid.Index(f.tiles[b.hop])]
	latency := s.teleportLat
	if b.hop > 0 && f.dirs[b.hop-1].Axis() != dir.Axis() {
		latency += node.TurnPenalty()
		s.turns++
	}
	node.TeleporterSet(dir.Axis()).Serve(latency, batchTeleported, b)
}

// batchTeleported runs once the batch has crossed the link: it frees
// the storage slot it held at the tile it left, then is either dropped
// by the fault model or flies on (next hop, or the endpoint stages).
func batchTeleported(a any) {
	b := a.(*batch)
	f := b.f
	ch := f.ch
	s := ch.sim
	s.pairHops += uint64(s.batchPairs)
	s.net.RecordTeleports(s.batchPairs)
	// The batch now occupies storage at the next tile; it frees its
	// slot at the previous tile (held since the prior hop).
	if b.hop > 0 {
		s.nodes[s.cfg.Grid.Index(f.tiles[b.hop])].Storage(f.dirs[b.hop-1].Opposite()).Release()
	}
	if ch.droppedOn(b.link) {
		// The fault model dropped the batch on this link: it frees the
		// slot it just occupied and a replacement is sent from the
		// channel source (budget permitting).
		b.store.Release()
		s.droppedBatches++
		if t := s.cfg.Trace; t != nil {
			t.RecordDrop(s.engine.Now(), b.link)
		}
		s.freeBatch(b)
		ch.resend()
		return
	}
	b.hop++
	if b.hop < len(f.dirs) {
		s.hop(b)
	} else {
		s.arrive(b)
	}
}

// droppedOn draws the fault model's Bernoulli for a batch crossing the
// link with the given canonical index.  On a healthy mesh — or a live
// link with zero drop rate — it never consults the RNG, keeping the
// draw stream of drop-free runs byte-identical to the pre-fault-layer
// simulator.
func (ch *channelRun) droppedOn(li int) bool {
	s := ch.sim
	if s.faults == nil {
		return false
	}
	rate := s.faults.DropByIndex(li)
	return rate > 0 && s.rng.Float64() < rate
}

// arrive runs the endpoint stages for one batch: correction — the
// accumulated Pauli frame costs at most two single-qubit gates, applied
// to each pair of the batch in parallel — then synchronized queue
// purification at both endpoint P nodes.
func (s *simulator) arrive(b *batch) {
	f := b.f
	b.lo = s.cfg.Grid.Index(f.tiles[0])
	b.hi = s.cfg.Grid.Index(f.tiles[len(f.tiles)-1])
	if b.lo > b.hi {
		b.lo, b.hi = b.hi, b.lo
	}
	s.engine.ScheduleCall(s.correctLat, batchCorrected, b)
}

// batchCorrected starts queue purification, which holds one purifier
// unit at each endpoint, acquired in canonical index order to prevent
// circular wait.
func batchCorrected(a any) {
	b := a.(*batch)
	b.f.ch.sim.purify[b.lo].Acquire(batchPurifierLo, b)
}

// batchPurifierLo runs with the lower-index endpoint's purifier held
// and queues for the other one.
func batchPurifierLo(a any) {
	b := a.(*batch)
	b.f.ch.sim.purify[b.hi].Acquire(batchPurifierHi, b)
}

// batchPurifierHi runs with both purifiers held: the batch drains into
// them, freeing its arrival storage slot, and purifies.
func batchPurifierHi(a any) {
	b := a.(*batch)
	s := b.f.ch.sim
	b.store.Release()
	s.net.RecordPurifies(s.batchPairs - 1) // a tree of 2^d leaves has 2^d - 1 purifications
	s.engine.ScheduleCall(s.purifyLatency(len(b.f.dirs)), batchPurified, b)
}

// batchPurified ends the batch: both purifiers are released, and the
// batch either yields its channel's purified pair or — on an injected
// failure — is lost, and a replacement batch is sent through the
// network (Figure 14's natural rebuild).
func batchPurified(a any) {
	b := a.(*batch)
	ch := b.f.ch
	s := ch.sim
	s.purify[b.hi].Release()
	s.purify[b.lo].Release()
	s.freeBatch(b)
	if s.cfg.PurifyFailureRate > 0 && s.rng.Float64() < s.cfg.PurifyFailureRate {
		s.failedBatches++
		ch.resend()
		return
	}
	ch.output()
}

// output counts a purified pair; when all batches have produced theirs,
// the data teleport fires.
func (ch *channelRun) output() {
	s := ch.sim
	ch.outputs++
	if ch.outputs < s.numBatches || ch.finished {
		return
	}
	ch.finished = true
	// All physical qubits of the logical qubit teleport in parallel,
	// each consuming one delivered pair; the latency is one teleport
	// plus the classical correction round trip over the setup-time path
	// (the channel-level delivery metric; minimal-policy resends fly
	// paths of the same length).
	latency := s.cfg.Params.TeleportTime(len(ch.base.dirs)*s.cfg.HopCells) +
		s.net.Latency(len(ch.base.dirs))
	s.engine.ScheduleCall(latency, channelDelivered, ch)
}

// channelDelivered tallies the channel's setup-to-delivery latency and
// runs its continuation.
func channelDelivered(a any) {
	ch := a.(*channelRun)
	s := ch.sim
	s.latencies.Add(float64(s.engine.Now() - ch.start))
	ch.done()
}

// genLatency is the G-node service time for one batch of link pairs
// (build keeps it in s.genLat).
func (s *simulator) genLatency() time.Duration {
	return s.cfg.Params.GenerateTime() * time.Duration(ceilDiv(s.cfg.batchPairs(), s.cfg.Generators))
}

// teleportLatency is the teleporter-set service time for one batch: the
// set's units work in parallel, so a batch needs ceil(batch/setSize)
// rounds of the hop-local teleport time (build keeps it in
// s.teleportLat).
func (s *simulator) teleportLatency() time.Duration {
	setSize := s.cfg.Teleporters / 2
	if setSize < 1 {
		setSize = 1
	}
	rounds := ceilDiv(s.cfg.batchPairs(), setSize)
	per := s.cfg.Params.TeleportTime(s.cfg.HopCells)
	return per * time.Duration(rounds)
}

// purifyBatchLatency is the queue-purifier makespan for one batch: the
// bottom level performs 2^(depth-1) sequential purifications and the
// remaining levels add a pipeline-drain tail of depth-1 rounds; each
// round exchanges classical bits across the channel (Eq 6).
func (s *simulator) purifyBatchLatency(hops int) time.Duration {
	depth := s.cfg.PurifyDepth
	rounds := 1<<uint(depth-1) + depth - 1
	per := s.cfg.Params.PurifyRoundTime(hops * s.cfg.HopCells)
	return per * time.Duration(rounds)
}

// purifyLatency is purifyBatchLatency memoized per hop count.  build
// fills the table for every minimal path length; a longer detour (a
// fault-adaptive route around dead links) extends it on first use.
func (s *simulator) purifyLatency(hops int) time.Duration {
	for len(s.purifyLat) <= hops {
		s.purifyLat = append(s.purifyLat, s.purifyBatchLatency(len(s.purifyLat)))
	}
	return s.purifyLat[hops]
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// result assembles the Result from the simulator's counters.
func (s *simulator) result(prog workload.Program) Result {
	res := Result{
		Exec:           s.engine.Now(),
		Ops:            len(prog.Ops),
		Channels:       s.channels,
		LocalOps:       s.localOps,
		PairsDelivered: s.channels * uint64(s.numBatches*s.batchPairs),
		PairHops:       s.pairHops,
		Turns:          s.turns,
		Events:         s.engine.Processed(),
	}
	msgs, _, _, _ := s.net.Stats()
	res.ClassicalMessages = msgs
	res.FailedBatches = s.failedBatches
	res.DroppedBatches = s.droppedBatches
	if s.faults != nil {
		res.DeadLinks = s.faults.DeadCount()
	}
	if s.latencies.Count() > 0 {
		res.MeanChannelLatency = time.Duration(s.latencies.Mean())
		res.MaxChannelLatency = time.Duration(s.latencies.Max())
	}
	var tu float64
	for _, n := range s.nodes {
		tu += n.Utilization()
	}
	res.TeleporterUtil = tu / float64(len(s.nodes))
	var gu float64
	for _, g := range s.gnodes {
		gu += g.Utilization()
	}
	if len(s.gnodes) > 0 {
		res.GeneratorUtil = gu / float64(len(s.gnodes))
	}
	var pu float64
	for _, p := range s.purify {
		pu += p.Utilization()
	}
	res.PurifierUtil = pu / float64(len(s.purify))
	return res
}
