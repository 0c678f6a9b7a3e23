package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"

	"sweeper/internal/cluster"
	"sweeper/internal/machine"
)

// reruns keeps the first result of every named run and requires each rerun
// at the same seed to match it exactly.
type reruns struct {
	first map[string]any
}

func (r *reruns) check(key string, v any) error {
	if r.first == nil {
		r.first = map[string]any{}
	}
	prev, ok := r.first[key]
	if !ok {
		r.first[key] = v
		return nil
	}
	if !reflect.DeepEqual(prev, v) {
		return fmt.Errorf("%s: rerun at the same seed diverged from the first run", key)
	}
	return nil
}

// digest fingerprints the first result of every run, in key order, so a
// speed-only change can show its simulated statistics are unchanged.
func (r *reruns) digest() string {
	keys := make([]string, 0, len(r.first))
	for k := range r.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		data, err := json.Marshal(r.first[k])
		if err != nil {
			// Results hold only numbers, strings and slices of them.
			panic(err)
		}
		fmt.Fprintf(h, "%s\n%s\n", k, data)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// checkDigest prints the digest and, at the default seed, requires it to
// match the committed reference.
func checkDigest(b *bench, name, digest string) error {
	fmt.Printf("# perfbench digest %s seed=%d %s\n", name, b.seed, digest)
	if b.seed != defaultSeed || b.short {
		return nil
	}
	ref, err := loadReference(b.env.refPath)
	if err != nil {
		return err
	}
	return compareDigest(ref, name, digest)
}

func compareDigest(ref *reference, name, digest string) error {
	want, ok := ref.Digests[name]
	if !ok {
		return fmt.Errorf("%s: no reference digest (regenerate with -write-reference)", name)
	}
	if want != digest {
		return fmt.Errorf("%s: simulated results digest %s differs from the reference %s", name, digest, want)
	}
	return nil
}

// checkMachine applies the sanity invariants to one open-loop run. The
// cumulative counters from cycle 0 bound served requests by offered ones
// exactly (a measurement window alone does not: it can drain a backlog
// queued before it opened).
func checkMachine(m *machine.Machine, r machine.Results) error {
	if r.Served == 0 {
		return errors.New("served no requests")
	}
	fin := m.Metrics().Final(m.Engine().Now())
	if served, offered := fin["cpu.served"], fin["gen.offered"]; served > offered {
		return fmt.Errorf("served %.0f requests of %.0f offered", served, offered)
	}
	return nil
}

// checkSampled requires a sampling summary with finite estimates.
func checkSampled(s *machine.SamplingSummary) error {
	if s.Intervals == 0 {
		return errors.New("sampled run measured no interval")
	}
	for name, e := range map[string][2]float64{
		"throughput": {s.Throughput.Mean, s.Throughput.HalfWidth},
		"amat":       {s.AMAT.Mean, s.AMAT.HalfWidth},
		"mem_bw":     {s.MemBW.Mean, s.MemBW.HalfWidth},
	} {
		for _, v := range e {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sampled %s estimate is not finite", name)
			}
		}
	}
	return nil
}

// checkCluster applies the rack's invariants: work served, traffic that
// crossed the fabric, and no node serving more than the balancer offered it.
func checkCluster(cl *cluster.Cluster, r cluster.Results) error {
	if r.Served == 0 {
		return errors.New("rack served no requests")
	}
	if r.RemoteReads == 0 {
		return errors.New("rack run never crossed the fabric")
	}
	fin := cl.Metrics().Final(cl.Engine().Now())
	for i := 0; i < cl.NumNodes(); i++ {
		served := fin[fmt.Sprintf("node%d.cpu.served", i)]
		offered := fin[fmt.Sprintf("lb.node%d.offered", i)]
		if served > offered {
			return fmt.Errorf("node %d served %.0f requests of %.0f offered", i, served, offered)
		}
	}
	return nil
}

// reference is the committed default-seed record: each workload's digest
// and the sampled ladder's full-detail runs.
type reference struct {
	Seed        int64             `json:"seed"`
	Note        string            `json:"note"`
	Digests     map[string]string `json:"digests"`
	SampledFull []fullRef         `json:"sampled_full"`
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	if ref.Seed != defaultSeed {
		return nil, fmt.Errorf("reference %s is for seed %d, not %d", path, ref.Seed, defaultSeed)
	}
	return &ref, nil
}

// loadSampledReference returns the committed full-detail runs, requiring
// one per ladder point.
func loadSampledReference(path string) ([]fullRef, error) {
	ref, err := loadReference(path)
	if err != nil {
		return nil, err
	}
	have := map[sampledPoint]bool{}
	for _, f := range ref.SampledFull {
		have[f.sampledPoint] = true
	}
	for _, p := range sampledPoints() {
		if !have[p] {
			return nil, fmt.Errorf("reference %s lacks the full run of %v (regenerate with -write-reference)", path, p)
		}
	}
	return ref.SampledFull, nil
}

// writeReference regenerates the reference file: one iteration of every
// workload at the default seed for the digests, and the sampled ladder's
// full-detail runs.
func writeReference(e *env) error {
	ref := reference{
		Seed: defaultSeed,
		Note: "Default-seed reference of the repository benchmark. Regenerate with " +
			"`bash perfbench/run.sh -write-reference` after a change that is meant to " +
			"move simulated results.",
		Digests: map[string]string{},
	}
	var err error
	sz := benchSizes()
	if ref.SampledFull, err = fullReference(machine.NewPool(1), defaultSeed, sz); err != nil {
		return err
	}
	for _, w := range newWorkloads(sz) {
		b := &bench{env: e, seed: defaultSeed, regenerate: true, ctx: context.Background()}
		if w.prepare != nil {
			if err := w.prepare(b); err != nil {
				return err
			}
		}
		if it := b.oneIteration(w); it.failed > 0 {
			return fmt.Errorf("%s failed at the default seed", w.name)
		}
		ref.Digests[w.name] = w.digest()
		fmt.Printf("# perfbench reference %s digest %s\n", w.name, ref.Digests[w.name])
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.refPath, append(data, '\n'), 0o644)
}
