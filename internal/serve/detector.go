package serve

import (
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

// detectHashCap bounds the distinct-input hash set kept per client. An
// extraction run is flagged long before this; past it, novelty saturates
// instead of growing server memory.
const detectHashCap = 1 << 14

// The detector's thresholds. detectMinQueries is the volume floor: a
// client is never flagged before it has spent this many prediction
// samples. detectNovelty is the distinct-input fraction at or above which
// a high-volume client is flagged as extraction-like; honest repeat
// traffic sits far below it.
const (
	detectMinQueries = 256
	detectNovelty    = 0.9
)

// Detector is the obs-backed extraction-pattern heuristic: it watches
// per-client query volume and input novelty (the fraction of a client's
// samples never seen from them before). Honest traffic is either low
// volume or repetitive (retries, dashboards, the same hot inputs);
// surrogate-training attackers need many *distinct* inputs, so high
// volume × high novelty is the extraction signature. Flagging is
// advisory — it feeds metrics and GET /detectz, it does not block (pair
// it with a query budget for that).
type Detector struct {
	mu      sync.Mutex
	clients map[string]*clientProfile

	// flagged mirrors the flagged-client count into the obs registry
	// (serve_extract_flagged_clients).
	flagged *obs.Gauge
	// samples counts every sample the detector observed
	// (serve_extract_samples_total).
	samples *obs.Counter
}

type clientProfile struct {
	queries int // samples observed
	hashes  map[uint64]struct{}
	flagged bool
}

func newDetector(opts Options) *Detector {
	d := &Detector{
		clients: map[string]*clientProfile{},
		flagged: obs.NewGauge(),
		samples: obs.NewCounter(),
	}
	opts.Obs.RegisterGauge("serve_extract_flagged_clients", d.flagged)
	opts.Obs.RegisterCounter("serve_extract_samples_total", d.samples)
	return d
}

// Observe feeds one predict request's samples into the client's profile.
// Called on every predict attempt — including ones a budget later denies,
// since denied probes are still extraction pressure.
func (d *Detector) Observe(client string, inputs [][]float64) {
	if len(inputs) == 0 {
		return
	}
	d.samples.Add(int64(len(inputs)))
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.clients[client]
	if !ok {
		// Past the per-client metric vecs' cap, later identities share
		// the overflow profile.
		if len(d.clients) >= obs.DefaultMaxLabelValues {
			client = obs.OverflowLabel
			p = d.clients[client]
		}
		if p == nil {
			p = &clientProfile{hashes: map[uint64]struct{}{}}
			d.clients[client] = p
		}
	}
	for _, in := range inputs {
		p.queries++
		if len(p.hashes) < detectHashCap {
			p.hashes[hashInput(in)] = struct{}{}
		}
	}
	if !p.flagged && p.queries >= detectMinQueries && p.noveltyRatio() >= detectNovelty {
		p.flagged = true
		d.flagged.Add(1)
	}
}

func (p *clientProfile) noveltyRatio() float64 {
	if p.queries == 0 {
		return 0
	}
	return float64(len(p.hashes)) / float64(p.queries)
}

// hashInput digests one flattened sample's exact float bits (FNV-64a), so
// "distinct" means bit-distinct — a jittered replay of a seed image
// counts as novel, which is exactly the attacker behavior the heuristic
// is after.
func hashInput(in []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range in {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ClientDetectReport is one client's row in the /detectz answer.
type ClientDetectReport struct {
	Client   string  `json:"client"`
	Queries  int     `json:"queries"`
	Distinct int     `json:"distinct"`
	Novelty  float64 `json:"novelty"`
	Flagged  bool    `json:"flagged"`
}

// DetectReport is the GET /detectz body: per-client extraction pressure,
// sorted by client for deterministic output.
type DetectReport struct {
	// MinQueries and Novelty echo the thresholds the verdicts used.
	MinQueries int                  `json:"min_queries"`
	Novelty    float64              `json:"novelty_threshold"`
	Flagged    int                  `json:"flagged"`
	Clients    []ClientDetectReport `json:"clients"`
}

// Report snapshots the detector.
func (d *Detector) Report() DetectReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	rep := DetectReport{MinQueries: detectMinQueries, Novelty: detectNovelty}
	for client, p := range d.clients {
		rep.Clients = append(rep.Clients, ClientDetectReport{
			Client:   client,
			Queries:  p.queries,
			Distinct: len(p.hashes),
			Novelty:  p.noveltyRatio(),
			Flagged:  p.flagged,
		})
		if p.flagged {
			rep.Flagged++
		}
	}
	sort.Slice(rep.Clients, func(i, j int) bool { return rep.Clients[i].Client < rep.Clients[j].Client })
	if rep.Clients == nil {
		rep.Clients = []ClientDetectReport{}
	}
	return rep
}
