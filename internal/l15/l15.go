// Package l15 models the paper's L1.5 Cache: a Virtual-Indexed,
// Physically-Tagged (VIPT), Selectively-Inclusive, Non-Exclusive (SINE)
// cache shared by the cores of one computing cluster, positioned between
// the private L1s and the shared L2.
//
// The model implements the §3 microarchitecture at a functional level:
//
//   - per-core control registers: TID, way Ownership (OW) and Global
//     Visibility (GV) bitmaps (Fig. 4(a)-a);
//   - the dual-level mask logic: the read path sees OW ∪ (GV of same-TID
//     cores), the write path only OW ∖ GV (Fig. 4(a)-b, Fig. 4(b));
//   - the protector XNOR-gating GV sharing on TID equality (§3.2);
//   - the Supply-Demand Unit: per-core Demand/Supply registers, a
//     comparator, and the Walloc FSM that reassigns exactly one way per
//     cycle through its register-bank shadow of way ownership (Fig. 5);
//   - per-way inclusion policy (ip_set): stores propagate into the L1.5
//     only through ways configured inclusive.
//
// The cache is tag-only (the simulated hierarchy is write-through with
// memory authoritative), so the model captures timing and visibility —
// which is what the paper's experiments measure.
package l15

import (
	"fmt"

	"l15cache/internal/bitmap"
	"l15cache/internal/cache"
	"l15cache/internal/flight"
	"l15cache/internal/kernel"
	"l15cache/internal/mem"
	"l15cache/internal/metrics"
)

// Config is the cluster's L1.5 geometry and timing.
type Config struct {
	Ways      int // ζ (16 in the evaluation SoC)
	WayBytes  int // κ (2 KB)
	LineBytes int // 64 B
	Cores     int // cores in the cluster (4)
	HitLat    int // local-way hit latency (2 cycles)
	GlobalLat int // extra latency reading another core's global way (+1)

	// WriteBack selects the write policy. The default (false) is
	// write-through: every store is posted to the next level and the
	// dirty bits stay clear. With WriteBack, stores settle in the L1.5
	// and the dirty lines drain to the next level only on eviction or
	// way revocation — the coherence duty the paper's per-line dirty bit
	// exists for. Write-back reduces downstream write traffic at the
	// cost of revocation work in the Walloc.
	WriteBack bool
}

// DefaultConfig mirrors the evaluation platform.
func DefaultConfig() Config {
	return Config{Ways: 16, WayBytes: 2 * 1024, LineBytes: 64, Cores: 4, HitLat: 2, GlobalLat: 1}
}

// NextLevel is the memory side of the L1.5 (the shared L2): it absorbs
// misses and returns their latency.
type NextLevel interface {
	Access(pa mem.PhysAddr, write bool) int
}

// CoreStats counts one core's L1.5 events.
type CoreStats struct {
	Hits, Misses uint64
	GlobalHits   uint64 // hits served from another core's global way
}

// L15 is one cluster's cache instance.
type L15 struct {
	cfg   Config
	store *cache.Cache

	tid [bitmap.MaxWays]uint16
	ow  []bitmap.Bitmap // per core: owned ways
	gv  []bitmap.Bitmap // per core: globally visible subset of owned ways
	// ip is the per-core inclusion-policy register. Unlike GV it is a
	// *policy*: it is masked against the current ownership at access
	// time, so ways the Walloc grants later automatically adopt it (the
	// kernel issues ip_set during the context switch, §4.3, while the
	// SDU is still applying the matching demand).
	ip []bitmap.Bitmap

	wayOwner []int // Walloc register bank: way -> core, -1 = N/U
	demand   []int // SDU D registers
	// demandTick records when the latest demand() arrived, so
	// ConfigLatency can measure configuration latency.
	demandTick    []uint64
	satisfiedTick []uint64

	next  NextLevel
	ticks uint64
	// idle caches sduIdle: Demand, assignWay and revokeWay — the only
	// calls that change a demand, an ownership or the free ways —
	// recompute it, so a settled SDU advances in O(1).
	idle bool

	// Per-config-epoch mask cache (struct-of-arrays): readM[c] is
	// OW ∪ same-TID GV, writeM[c] is OW ∖ GV. Any control-state mutation
	// (TID load, gv_set, Walloc grant/revoke) marks the cache dirty; the
	// access paths then recompute all cores at once instead of walking
	// the cluster per access.
	readM      []bitmap.Bitmap
	writeM     []bitmap.Bitmap
	masksDirty bool

	Stats []CoreStats

	// configEvents counts Walloc way reassignments (grants plus
	// revocations); a flight recording (FlightRecord) carries each one.
	configEvents uint64

	// WritebackLines counts dirty lines drained to the next level by
	// evictions and way revocations (write-back mode only).
	WritebackLines uint64

	// Observability hookups (nil until Instrument): the SDU reassignment
	// latency histogram and the event tracer.
	mSDULat   *metrics.Histogram
	tracer    *metrics.Tracer
	traceName string

	// Flight recording (nil until FlightRecord): every Walloc way
	// reassignment and gv_set emits a typed, tick-stamped event.
	frec     *flight.Recorder
	fcluster int32
}

// SDULatencyBuckets are the default histogram bounds (in SDU cycles) for
// the way-reconfiguration latency of §5.3.
var SDULatencyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Instrument publishes the cluster's counters to the registry under prefix
// (e.g. "soc.cluster0.l15") and routes Walloc way reassignments to the
// tracer. Per-core hit/miss/global-hit counters, the rollups, the tag
// store's counters and the owned-way gauge are collected lazily at snapshot
// time; the SDU configuration-latency histogram is observed live as demands
// are satisfied. Either argument may be nil.
func (l *L15) Instrument(r *metrics.Registry, tr *metrics.Tracer, prefix string) {
	l.tracer = tr
	l.traceName = prefix
	if r == nil {
		return
	}
	l.mSDULat = r.Histogram(prefix+".sdu_config_latency_cycles", SDULatencyBuckets)
	l.store.PublishMetrics(r, prefix+".store")
	r.RegisterCollector(func(r *metrics.Registry) {
		var hits, misses, global uint64
		for core, st := range l.Stats {
			r.Counter(fmt.Sprintf("%s.core%d.hits", prefix, core)).Store(st.Hits)
			r.Counter(fmt.Sprintf("%s.core%d.misses", prefix, core)).Store(st.Misses)
			r.Counter(fmt.Sprintf("%s.core%d.global_hits", prefix, core)).Store(st.GlobalHits)
			hits += st.Hits
			misses += st.Misses
			global += st.GlobalHits
		}
		r.Counter(prefix + ".hits").Store(hits)
		r.Counter(prefix + ".misses").Store(misses)
		r.Counter(prefix + ".global_hits").Store(global)
		r.Counter(prefix + ".writeback_lines").Store(l.WritebackLines)
		r.Counter(prefix + ".config_events").Store(l.configEvents)
		r.Gauge(prefix + ".owned_ways").Set(float64(l.OwnedWays()))
	})
}

// FlightRecord attaches a flight recorder: Walloc way grants and
// revocations emit KindSDU events (Time = SDU tick, Node = way index,
// A = 1 assign / 0 revoke, B = owner core's demand, C = dirty lines
// drained) and gv_set emits KindGVConvert (A = global-way count after).
// Events carry the given cluster index. A nil recorder detaches.
func (l *L15) FlightRecord(rec *flight.Recorder, cluster int) {
	l.frec = rec
	l.fcluster = int32(cluster)
}

// New builds the cluster cache. The way count must be a power of two (the
// underlying PLRU store's requirement) and WayBytes a multiple of
// LineBytes.
func New(cfg Config, next NextLevel) (*L15, error) {
	if cfg.Cores <= 0 || cfg.Cores > bitmap.MaxWays {
		return nil, fmt.Errorf("l15: cores = %d", cfg.Cores)
	}
	if cfg.Ways <= 0 || cfg.Ways > bitmap.MaxWays {
		return nil, fmt.Errorf("l15: ways = %d", cfg.Ways)
	}
	if next == nil {
		return nil, fmt.Errorf("l15: nil next level")
	}
	store, err := cache.New(cfg.Ways*cfg.WayBytes, cfg.Ways, cfg.LineBytes, cfg.HitLat)
	if err != nil {
		return nil, fmt.Errorf("l15: %w", err)
	}
	l := &L15{
		cfg:           cfg,
		store:         store,
		ow:            make([]bitmap.Bitmap, cfg.Cores),
		gv:            make([]bitmap.Bitmap, cfg.Cores),
		ip:            make([]bitmap.Bitmap, cfg.Cores),
		wayOwner:      make([]int, cfg.Ways),
		demand:        make([]int, cfg.Cores),
		demandTick:    make([]uint64, cfg.Cores),
		satisfiedTick: make([]uint64, cfg.Cores),
		next:          next,
		Stats:         make([]CoreStats, cfg.Cores),
		readM:         make([]bitmap.Bitmap, cfg.Cores),
		writeM:        make([]bitmap.Bitmap, cfg.Cores),
		masksDirty:    true,
		idle:          true, // nothing owned, nothing demanded
	}
	for w := range l.wayOwner {
		l.wayOwner[w] = -1
	}
	return l, nil
}

// Config returns the geometry.
func (l *L15) Config() Config { return l.cfg }

func (l *L15) checkCore(core int) error {
	if core < 0 || core >= l.cfg.Cores {
		//lint:ignore hotalloc invalid-core guard: the error is built only on a malformed request, which halts the core
		return fmt.Errorf("l15: core %d outside cluster of %d", core, l.cfg.Cores)
	}
	return nil
}

// SetTID loads the core's Task ID control register (done by the kernel at
// context switch). Changing the TID immediately stops cross-core sharing
// with cores running other applications.
func (l *L15) SetTID(core int, tid uint16) error {
	if err := l.checkCore(core); err != nil {
		return err
	}
	l.tid[core] = tid
	l.masksDirty = true
	return nil
}

// TID returns the core's task-ID register.
func (l *L15) TID(core int) uint16 { return l.tid[core] }

// Demand implements the demand instruction: request n ways for the core.
// The SDU satisfies the request asynchronously, one way per Tick.
func (l *L15) Demand(core, n int) error {
	if err := l.checkCore(core); err != nil {
		return err
	}
	if n < 0 || n > l.cfg.Ways {
		//lint:ignore hotalloc invalid-demand guard: the error is built only on a malformed request, which halts the core
		return fmt.Errorf("l15: demand of %d ways (ζ = %d)", n, l.cfg.Ways)
	}
	l.demand[core] = n
	l.demandTick[core] = l.ticks
	l.updateIdle()
	return nil
}

// Supply implements the supply instruction: the bitmap of ways currently
// assigned to the core.
func (l *L15) Supply(core int) (bitmap.Bitmap, error) {
	if err := l.checkCore(core); err != nil {
		return 0, err
	}
	return l.ow[core], nil
}

// GVSet implements gv_set: mark the given owned ways globally visible
// (read-only for the whole same-TID cluster). Bits outside the core's
// ownership are ignored, as the mask logic physically cannot assert them.
func (l *L15) GVSet(core int, ways bitmap.Bitmap) error {
	if err := l.checkCore(core); err != nil {
		return err
	}
	l.gv[core] = ways.Intersect(l.ow[core])
	l.masksDirty = true
	if l.frec != nil {
		l.frec.Emit(flight.Event{Kind: flight.KindGVConvert,
			Time: float64(l.ticks), Task: -1, Job: -1, Node: -1,
			Core: int32(core), Cluster: l.fcluster, Wave: -1,
			A: float64(l.gv[core].Count())})
	}
	return nil
}

// GVGet implements gv_get.
func (l *L15) GVGet(core int) (bitmap.Bitmap, error) {
	if err := l.checkCore(core); err != nil {
		return 0, err
	}
	return l.gv[core], nil
}

// IPSet implements ip_set: configure the core's inclusion policy. Stores
// propagate only into owned, non-global ways covered by the policy; ways
// granted after the ip_set adopt it as they arrive.
func (l *L15) IPSet(core int, ways bitmap.Bitmap) error {
	if err := l.checkCore(core); err != nil {
		return err
	}
	l.ip[core] = ways
	return nil
}

// IPGet returns the effective inclusive subset — the policy masked by the
// current ownership (diagnostics; the ISA has no reader for it).
func (l *L15) IPGet(core int) bitmap.Bitmap { return l.ip[core].Intersect(l.ow[core]) }

// Pending reports whether the core's demand has not yet been fully served
// (the source of the φ mis-configuration windows of §5.3).
func (l *L15) Pending(core int) bool {
	return l.ow[core].Count() != l.demand[core]
}

// ConfigLatency returns, for a satisfied demand, the number of ticks the
// SDU needed to serve it.
func (l *L15) ConfigLatency(core int) uint64 {
	if l.Pending(core) {
		return l.ticks - l.demandTick[core]
	}
	return l.satisfiedTick[core] - l.demandTick[core]
}

// Tick advances the SDU by one cycle: the Walloc FSM reconfigures at most
// one way (§3.1, "the DSU's constraint of configuring only one cache way
// at a time" — §5.3). Cores are scanned round-robin from the tick counter
// for fairness.
func (l *L15) Tick() {
	l.ticks++
	for i := 0; i < l.cfg.Cores; i++ {
		core := (int(l.ticks) + i) % l.cfg.Cores
		have := l.ow[core].Count()
		want := l.demand[core]
		switch {
		case have < want:
			w := l.freeWay()
			if w < 0 {
				continue // best effort: wait for a release
			}
			l.assignWay(core, w)
			if l.ow[core].Count() == l.demand[core] {
				l.satisfiedTick[core] = l.ticks
				l.observeConfigLatency(core)
			}
			return
		case have > want:
			w := l.ow[core].Lowest()
			l.revokeWay(core, w)
			if l.ow[core].Count() == l.demand[core] {
				l.satisfiedTick[core] = l.ticks
				l.observeConfigLatency(core)
			}
			return
		}
	}
}

// Ticks returns the SDU cycle counter.
func (l *L15) Ticks() uint64 { return l.ticks }

// sduIdle reports whether a Tick would be a no-op: no core holds more ways
// than it demands, and no underserved core can be granted one (either all
// demands are met or the bank has no free way). Idleness is stable — a
// no-op tick changes no state except the counter, so the SDU stays idle
// until the next external call (demand, gv_set, revocation) — which is the
// skip-safety argument of DESIGN.md §11.
func (l *L15) sduIdle() bool { return l.idle }

// updateIdle recomputes the idle field after a demand or ownership change.
func (l *L15) updateIdle() {
	freeExists := l.freeWay() >= 0
	l.idle = true
	for core := 0; core < l.cfg.Cores; core++ {
		have := l.ow[core].Count()
		want := l.demand[core]
		if have > want || have < want && freeExists {
			l.idle = false
			return
		}
	}
}

// NextWakeup implements the kernel wakeup protocol: the next cycle at
// which ticking the SDU would change state, or kernel.Never when every
// demand is settled.
func (l *L15) NextWakeup() uint64 {
	if l.sduIdle() {
		return kernel.Never
	}
	return l.ticks + 1
}

// AdvanceTo brings the SDU cycle counter to target, ticking while the
// Walloc has work and jumping the counter across idle stretches. Because
// cores are scanned round-robin from the tick counter, the skip lands on
// the same counter value ticked mode would reach, so the two kernels stay
// byte-identical in every tick-stamped event.
func (l *L15) AdvanceTo(target uint64) {
	for l.ticks < target {
		if l.sduIdle() {
			l.ticks = target
			return
		}
		l.Tick()
	}
}

func (l *L15) freeWay() int {
	for w, owner := range l.wayOwner {
		if owner == -1 {
			return w
		}
	}
	return -1
}

// observeConfigLatency feeds the just-satisfied demand's latency into the
// SDU histogram (no-op until Instrument).
func (l *L15) observeConfigLatency(core int) {
	if l.mSDULat != nil {
		l.mSDULat.Observe(float64(l.satisfiedTick[core] - l.demandTick[core]))
	}
	if l.tracer != nil {
		l.tracer.Emit(l.ticks, l.traceName, "demand.satisfied",
			//lint:ignore hotalloc tracer payload, built only when instrumented; trace runs are diagnostic, not timing-measured
			map[string]any{"core": core, "ways": l.demand[core]})
	}
}

func (l *L15) assignWay(core, w int) {
	l.wayOwner[w] = core
	l.ow[core] = l.ow[core].Set(w)
	l.masksDirty = true
	l.updateIdle()
	l.configEvents++
	if l.tracer != nil {
		//lint:ignore hotalloc tracer payload, built only when instrumented; trace runs are diagnostic, not timing-measured
		l.tracer.Emit(l.ticks, l.traceName, "way.assign", map[string]any{"core": core, "way": w})
	}
	if l.frec != nil {
		l.frec.Emit(flight.Event{Kind: flight.KindSDU,
			Time: float64(l.ticks), Task: -1, Job: -1, Node: int32(w),
			Core: int32(core), Cluster: l.fcluster, Wave: -1,
			A: 1, B: float64(l.demand[core])})
	}
}

func (l *L15) revokeWay(core, w int) {
	// The way's contents belong to the old owner: flush before the bank
	// hands it over. In write-through mode nothing is dirty; in
	// write-back mode the dirty lines drain to the next level (the
	// coherence step the per-line dirty bit gates).
	_, dirty := l.store.FlushWay(w)
	l.WritebackLines += uint64(dirty)
	for i := 0; i < dirty; i++ {
		l.next.Access(0, true)
	}
	l.wayOwner[w] = -1
	l.ow[core] = l.ow[core].Clear(w)
	l.gv[core] = l.gv[core].Clear(w)
	l.masksDirty = true
	l.updateIdle()
	l.configEvents++
	if l.tracer != nil {
		l.tracer.Emit(l.ticks, l.traceName, "way.revoke",
			//lint:ignore hotalloc tracer payload, built only when instrumented; trace runs are diagnostic, not timing-measured
			map[string]any{"core": core, "way": w, "dirty": dirty})
	}
	if l.frec != nil {
		l.frec.Emit(flight.Event{Kind: flight.KindSDU,
			Time: float64(l.ticks), Task: -1, Job: -1, Node: int32(w),
			Core: int32(core), Cluster: l.fcluster, Wave: -1,
			A: 0, B: float64(l.demand[core]), C: float64(dirty)})
	}
}

// ensureMasks recomputes the cached read/write masks after a control-state
// change. The cluster is small (4 cores), so rebuilding every core at once
// is cheaper than tracking finer invalidation.
func (l *L15) ensureMasks() {
	if !l.masksDirty {
		return
	}
	for core := 0; core < l.cfg.Cores; core++ {
		m := l.ow[core]
		for c := 0; c < l.cfg.Cores; c++ {
			if c != core && l.tid[c] == l.tid[core] {
				m = m.Union(l.gv[c])
			}
		}
		l.readM[core] = m
		l.writeM[core] = l.ow[core].Diff(l.gv[core])
	}
	l.masksDirty = false
}

// readMask is the upper-level filter of the read path: the core's own ways
// plus every same-TID core's globally visible ways (the protector's
// TID-XNOR gates the GV registers, §3.2).
func (l *L15) readMask(core int) bitmap.Bitmap {
	l.ensureMasks()
	return l.readM[core]
}

// writeMask is the write-path filter: owned, not globally visible
// (global ways are read-only).
func (l *L15) writeMask(core int) bitmap.Bitmap {
	l.ensureMasks()
	return l.writeM[core]
}

// OwnedWays returns the number of currently assigned ways across all
// cores.
func (l *L15) OwnedWays() int {
	n := 0
	for _, o := range l.wayOwner {
		if o != -1 {
			n++
		}
	}
	return n
}

// AccessResult reports one L1.5 access.
type AccessResult struct {
	Hit     bool
	Global  bool // served from another core's global way
	Latency int
}

// Load performs a read: virtual index (va selects the set), physical tag.
// A hit in an owned way costs HitLat; in a same-TID global way HitLat +
// GlobalLat. A miss fetches from the next level and fills a writable way if
// the core has one; otherwise the access bypasses the L1.5.
func (l *L15) Load(core int, va uint32, pa mem.PhysAddr) (AccessResult, error) {
	if err := l.checkCore(core); err != nil {
		return AccessResult{}, err
	}
	set := l.setIndex(va)
	tag := l.tag(pa)
	read := l.readMask(core)

	if w := l.store.Probe(set, tag, read); w >= 0 {
		// Touch through Access for PLRU bookkeeping.
		l.store.Access(set, tag, false, bitmap.FromWays(w))
		lat := l.cfg.HitLat
		global := !l.ow[core].Has(w)
		if global {
			lat += l.cfg.GlobalLat
			l.Stats[core].GlobalHits++
		}
		l.Stats[core].Hits++
		return AccessResult{Hit: true, Global: global, Latency: lat}, nil
	}
	l.Stats[core].Misses++
	lat := l.cfg.HitLat + l.next.Access(pa, false)
	l.store.Access(set, tag, false, l.writeMask(core)) // fill if possible
	return AccessResult{Latency: lat}, nil
}

// Store performs a write. Only ways that are owned, non-global and marked
// inclusive accept it (the IPU routes other stores around the L1.5, §2.2);
// the hierarchy is write-through, so the line is also pushed to the next
// level, whose latency is absorbed by the store buffer (not charged).
func (l *L15) Store(core int, va uint32, pa mem.PhysAddr) (AccessResult, error) {
	if err := l.checkCore(core); err != nil {
		return AccessResult{}, err
	}
	set := l.setIndex(va)
	tag := l.tag(pa)
	allowed := l.writeMask(core).Intersect(l.ip[core])
	if allowed.IsEmpty() {
		// Not inclusive: bypass, post the write downstream.
		l.next.Access(pa, true)
		return AccessResult{Latency: l.cfg.HitLat}, nil
	}
	// Under write-through the freshly written line is clean (memory is
	// updated in the same breath); only write-back mode tracks dirt.
	res := l.store.Access(set, tag, l.cfg.WriteBack, allowed)
	if res.Hit {
		l.Stats[core].Hits++
	} else {
		l.Stats[core].Misses++
	}
	if l.cfg.WriteBack {
		// The store settles in the L1.5; a displaced dirty line
		// drains downstream.
		if res.Writeback {
			l.WritebackLines++
			l.next.Access(pa, true)
		}
	} else {
		l.next.Access(pa, true) // write-through (posted)
	}
	return AccessResult{Hit: res.Hit, Latency: l.cfg.HitLat}, nil
}

// setIndex derives the set from the *virtual* address (the VIPT property:
// the index is available before translation completes).
func (l *L15) setIndex(va uint32) int {
	line := va / uint32(l.cfg.LineBytes)
	return int(line) & (l.store.Sets() - 1)
}

// tag derives the tag from the *physical* address.
func (l *L15) tag(pa mem.PhysAddr) uint32 {
	return uint32(pa) / uint32(l.cfg.LineBytes) / uint32(l.store.Sets())
}

// StoreStats exposes the underlying tag store's counters.
func (l *L15) StoreStats() cache.Stats { return l.store.Stats }
