package workload

import (
	"fmt"

	"sweeper/internal/addr"
)

// KVSConfig sizes the key-value store. Defaults follow the paper's
// Appendix: 2.4M keys, 1M buckets, a 256MB circular log, zipf(0.99)
// popularity and a 5/95 GET/SET mix.
type KVSConfig struct {
	Keys      uint64
	Buckets   uint64
	LogBytes  uint64
	ItemBytes uint64
	// GetPercent is the GET share of the mix (0-100); the paper's
	// write-heavy workload uses 5.
	GetPercent uint64
	ZipfTheta  float64
	// ComputeCycles is the fixed per-request service compute (hashing,
	// key comparison, response assembly) outside memory access time.
	ComputeCycles uint64
}

// DefaultKVSConfig returns the Appendix configuration for the given item
// size (512B or 1KB in the paper).
func DefaultKVSConfig(itemBytes uint64) KVSConfig {
	return KVSConfig{
		Keys:          2_400_000,
		Buckets:       1 << 20,
		LogBytes:      256 << 20,
		ItemBytes:     itemBytes,
		GetPercent:    5,
		ZipfTheta:     0.99,
		ComputeCycles: 300,
	}
}

// Validate reports configuration errors before the store is built.
func (c KVSConfig) Validate() error {
	if c.ItemBytes == 0 || c.ItemBytes%addr.LineBytes != 0 {
		return fmt.Errorf("workload: KVS item size %dB must be a positive multiple of %d", c.ItemBytes, addr.LineBytes)
	}
	if c.LogBytes < c.ItemBytes {
		return fmt.Errorf("workload: KVS log (%dB) too small to hold one %dB item", c.LogBytes, c.ItemBytes)
	}
	return nil
}

// KVS is the MICA-like store: a bucket array indexes items appended to a
// circular log. The simulator executes its access plan; the functional
// layer stores an 8-byte fingerprint per key so correctness (GET returns
// the latest SET) is testable without materializing gigabytes of values.
type KVS struct {
	cfg KVSConfig

	bucketsBase uint64
	logBase     uint64
	zipf        *Zipf

	// written holds the state of every key SET since Layout; every other
	// key is still in its pre-populated state, which initial computes in
	// closed form. The overlay grows with the distinct keys a run writes,
	// not with Keys.
	written map[uint64]keyState

	logHead   uint64
	logSlots  uint64 // items the circular log holds: LogBytes / ItemBytes
	itemLines uint64

	gets, sets uint64

	// Cluster sharding (zero on standalone stores): the log is sharded by
	// key across nodes — a key's home is the node whose log holds its
	// latest value, logHeads the simulated append cursor of every node's
	// log. Each node runs its own KVS instance over an identical layout
	// (same bucket and log base addresses), so every instance computes the
	// same initial state from (nodes, key) alone and remote item reads can
	// name the home node's log lines via addr.Remote.
	nodes, nodeID int
	logHeads      []uint64
}

// keyState is where a key's latest value lives and what it is.
type keyState struct {
	loc  uint64 // byte offset of the value in its home node's log
	ver  uint64 // fingerprint of the latest SET
	home uint8  // node whose log holds the value (0 on standalone stores)
}

// NewKVS allocates the store's in-memory structures (the Zipf sampler and
// an empty overlay of written keys). Call Layout before use to place and
// pre-populate the store in an address space.
func NewKVS(cfg KVSConfig) *KVS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Note: 2.4M x 1KB items exceed the 256MB circular log, exactly as in
	// MICA — the log wraps and old entries are overwritten in place, so
	// cold keys' locations alias recycled log space. The architectural
	// access pattern (bucket probe + log read/append) is unaffected.
	return &KVS{
		cfg:       cfg,
		zipf:      NewZipf(cfg.Keys, cfg.ZipfTheta, true),
		written:   make(map[uint64]keyState),
		logSlots:  cfg.LogBytes / cfg.ItemBytes,
		itemLines: cfg.ItemBytes / addr.LineBytes,
	}
}

// Layout implements Driver: it lays the store's structures out in the
// address space — buckets then log, always in that order — and
// pre-populates every key, mirroring the paper's pre-populated 2.4M pairs.
//
// Pre-population appends the keys in key order, key i to the log of its
// home node i%nodes (the single log on standalone stores, where nodes is
// 1). Key i is therefore the (i/nodes)-th append to its home's log, and a
// circular log of S = LogBytes/ItemBytes slots puts append j at slot j%S,
// so every key's initial state and every cursor follow in closed form (see
// initial) and Layout costs O(nodes), not O(Keys). Re-laying-out against a
// freshly Reset space drops the written-key overlay and reproduces the
// identical initial state a fresh store would have.
func (k *KVS) Layout(space *addr.Space) {
	k.bucketsBase = space.AllocApp(k.cfg.Buckets * addr.LineBytes)
	k.logBase = space.AllocApp(k.cfg.LogBytes)
	k.gets, k.sets = 0, 0
	clear(k.written)
	if k.nodes <= 1 {
		k.logHead = k.slotOffset(k.cfg.Keys)
		return
	}
	// Sharded: the shared cursor stays at 0 and each home's cursor sits
	// after the keys homed there.
	k.logHead = 0
	if len(k.logHeads) != k.nodes {
		k.logHeads = make([]uint64, k.nodes)
	}
	n := uint64(k.nodes)
	for home := range k.logHeads {
		homed := k.cfg.Keys / n
		if uint64(home) < k.cfg.Keys%n {
			homed++
		}
		k.logHeads[home] = k.slotOffset(homed)
	}
}

// slotOffset returns the log offset of the j-th append to a fresh log.
func (k *KVS) slotOffset(j uint64) uint64 {
	return j % k.logSlots * k.cfg.ItemBytes
}

// initial returns a key's pre-populated state (see Layout).
func (k *KVS) initial(key uint64) keyState {
	n := uint64(max(k.nodes, 1))
	return keyState{
		loc:  k.slotOffset(key / n),
		ver:  splitmix64(key),
		home: uint8(key % n),
	}
}

// state returns a key's current state: its latest SET, or its
// pre-populated state when it has not been SET since Layout.
func (k *KVS) state(key uint64) keyState {
	if st, ok := k.written[key]; ok {
		return st
	}
	return k.initial(key)
}

// nextHead advances a circular-log cursor by one item.
func (k *KVS) nextHead(h uint64) uint64 {
	h += k.cfg.ItemBytes
	if h+k.cfg.ItemBytes > k.cfg.LogBytes {
		h = 0
	}
	return h
}

// SetCluster implements ClusterSharder: subsequent Layouts shard the log
// across nodes and PlanRequest emits addr.Remote references for items
// homed elsewhere. The machine calls it before Layout on cluster nodes.
func (k *KVS) SetCluster(nodes, nodeID int) {
	if nodes < 1 || nodeID < 0 || nodeID >= nodes {
		panic(fmt.Sprintf("workload: SetCluster(%d, %d) out of range", nodes, nodeID))
	}
	if nodes > addr.MaxNodes {
		panic(fmt.Sprintf("workload: %d nodes exceeds the %d the remote-address encoding carries", nodes, addr.MaxNodes))
	}
	k.nodes, k.nodeID = nodes, nodeID
}

// itemAddr returns the address of a key's current value: its home log
// lines directly when local, an addr.Remote reference otherwise.
func (k *KVS) itemAddr(key uint64) uint64 {
	st := k.state(key)
	loc := k.logBase + st.loc
	if k.nodes > 1 {
		if home := int(st.home); home != k.nodeID {
			return addr.Remote(home, loc)
		}
	}
	return loc
}

// Name implements Workload.
func (k *KVS) Name() string { return fmt.Sprintf("kvs-%dB", k.cfg.ItemBytes) }

// Config returns the store's configuration.
func (k *KVS) Config() KVSConfig { return k.cfg }

// LogBase returns the base address of the circular log region.
func (k *KVS) LogBase() uint64 { return k.logBase }

// BucketsBase returns the base address of the bucket array.
func (k *KVS) BucketsBase() uint64 { return k.bucketsBase }

// bucketAddr returns the line address of a key's bucket.
func (k *KVS) bucketAddr(key uint64) uint64 {
	h := splitmix64(key*0x9e3779b97f4a7c15 + 1)
	return k.bucketsBase + (h%k.cfg.Buckets)*addr.LineBytes
}

// DecodeOp derives the deterministic (isGet, key) pair for a packet tag.
func (k *KVS) DecodeOp(tag uint64) (isGet bool, key uint64) {
	opBits := splitmix64(tag ^ 0xdeadbeefcafef00d)
	isGet = opBits%100 < k.cfg.GetPercent
	key = k.zipf.Sample(tag)
	return isGet, key
}

// RequestBytes returns the wire size of the request a tag denotes: GETs
// carry only a key (one line); SETs carry the full item, matching the
// paper's "commensurate network packet size".
func (k *KVS) RequestBytes(tag uint64) uint64 {
	if isGet, _ := k.DecodeOp(tag); isGet {
		return addr.LineBytes
	}
	return k.cfg.ItemBytes
}

// PlanRequest implements Workload: a GET probes the bucket and reads the
// item from the log; a SET probes and updates the bucket and appends the
// item at the log head. SET requests carry the full item in the packet
// (read by the core from the RX buffer); GET responses carry the item back.
func (k *KVS) PlanRequest(tag uint64, pktBytes uint64, plan *Plan) {
	plan.reset()
	plan.ComputeCycles = k.cfg.ComputeCycles
	isGet, key := k.DecodeOp(tag)
	plan.read(k.bucketAddr(key))
	if isGet {
		k.gets++
		// GETs carry only the key: the core reads just the header
		// line of the request packet. Items homed on another node's
		// log shard come back over the fabric (itemAddr is remote).
		plan.ReadFullPacket = false
		loc := k.itemAddr(key)
		for i := uint64(0); i < k.itemLines; i++ {
			plan.read(loc + i*addr.LineBytes)
		}
		plan.RespBytes = k.cfg.ItemBytes
		return
	}
	k.sets++
	plan.ReadFullPacket = true
	plan.write(k.bucketAddr(key)) // install the new location
	// SETs always append to the serving node's own log and re-home the
	// key there (MICA-style local appends: writes never cross the
	// fabric); standalone stores reduce to the single shared log.
	head := &k.logHead
	if k.nodes > 1 {
		head = &k.logHeads[k.nodeID]
	}
	loc := k.logBase + *head
	for i := uint64(0); i < k.itemLines; i++ {
		// Log appends are streaming full-line stores: no
		// read-for-ownership fetch of soon-overwritten data.
		plan.writeFull(loc + i*addr.LineBytes)
	}
	// Functional update.
	k.written[key] = keyState{loc: *head, ver: splitmix64(tag), home: uint8(k.nodeID)}
	*head = k.nextHead(*head)
	plan.RespBytes = addr.LineBytes // acknowledgment
}

// ExtraServiceCycles implements Driver: the KVS adds no service delay
// beyond its plan.
func (k *KVS) ExtraServiceCycles(uint64) uint64 { return 0 }

// Snapshot implements Driver.
func (k *KVS) Snapshot() []Counter {
	return []Counter{{Name: "gets", Value: k.gets}, {Name: "sets", Value: k.sets}}
}

// WarmLines implements StateWarmer: the store's resident set is the hot end
// of the zipf popularity curve — each hot key's bucket line plus its item's
// log lines. Emission walks ranks coldest-to-hottest so the hottest items
// end up most-recently-used, and stops once the budget's worth of lines is
// out: under zipf(0.99) the head ranks carry most of the access mass, so a
// cache-sized prefix is within a few percent of the converged content a
// multi-million-cycle warm-up would build.
func (k *KVS) WarmLines(lineBudget uint64, emit func(line uint64, dirty bool)) {
	perKey := k.itemLines + 1
	ranks := lineBudget / perKey
	if ranks > k.cfg.Keys {
		ranks = k.cfg.Keys
	}
	for r := ranks; r > 0; r-- {
		key := k.zipf.Key(r - 1)
		emit(k.bucketAddr(key), false)
		st := k.state(key)
		if k.nodes > 1 && int(st.home) != k.nodeID {
			// Remotely homed items live in another node's DRAM, not
			// this cache; only the bucket line is warmable here.
			continue
		}
		loc := k.logBase + st.loc
		for l := uint64(0); l < k.itemLines; l++ {
			emit(loc+l*addr.LineBytes, false)
		}
	}
}

// WarmLLC implements LLCWarmer: the store's steady state keeps the LLC full
// of dirty appended log lines, so warm-started measurement windows need a
// pre-filled hierarchy.
func (k *KVS) WarmLLC() bool { return true }

// Get returns the fingerprint of the key's latest value (functional layer).
func (k *KVS) Get(key uint64) uint64 {
	if key >= k.cfg.Keys {
		panic("workload: key out of range")
	}
	return k.state(key).ver
}

// Location returns the key's current log offset, for tests.
func (k *KVS) Location(key uint64) uint64 { return k.state(key).loc }

// OpCounts returns the number of GETs and SETs served.
func (k *KVS) OpCounts() (gets, sets uint64) { return k.gets, k.sets }

// FingerprintForTag returns the value fingerprint a SET with the given tag
// installs; tests use it to verify GET-after-SET semantics.
func FingerprintForTag(tag uint64) uint64 { return splitmix64(tag) }
