package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/artifact"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// modelName is the registry name every served request asks for.
	modelName = "prod"
	// clients is the number of client connections the load generator uses.
	clients = 2
	// openRate is serve-open's arrival rate in requests per second, about
	// a third of the single-replica capacity on the 2-core host: batches
	// stay small, so queueing changes show in latency, and a host that
	// slows by half still keeps up. At 300 req/s one run out of ten read a
	// median of 34 ms instead of 4, its queue growing for the whole phase.
	openRate = 200
	// openShare is the share of serve-open's measured time spent in the
	// open loop; the rest is the closed-loop capacity phase.
	openShare = 0.7
	// fleetBatch is the sample count of every fleet-batch request.
	fleetBatch = 32
	// warmShare is the share of -seconds a serving run spends in an
	// untimed closed loop before its measured phases, so that connections,
	// buffers and the heap are grown before the clock starts.
	warmShare = 0.05
	// rateWindow is the window closed-loop throughput is counted in; the
	// throughput reported is the median window's.
	rateWindow = time.Second
)

// servedRelease is the smoke release a serving set-up trains, the input
// pool its requests draw from, and the offline logits every served answer
// must equal bit for bit.
type servedRelease struct {
	raw  []byte
	rm   *modelio.ReleasedModel
	pool [][]float64
	want [][]float64
}

// trainServed trains and exports the smoke release and evaluates the pool
// offline. The pool is the smoke dataset itself.
func (r *runner) trainServed() (*servedRelease, error) {
	cfg := flowConfig(r.smoke, r.seed)
	rel, err := release(cfg)
	if err != nil {
		return nil, err
	}
	rm, err := modelio.Read(bytes.NewReader(rel.raw))
	if err != nil {
		return nil, err
	}
	m, _, err := modelio.Import(rm)
	if err != nil {
		return nil, err
	}
	x, _ := cfg.Data.Tensors()
	n, u := x.Dim(0), x.Dim(1)
	pool := make([][]float64, n)
	for i := range pool {
		pool[i] = x.Data()[i*u : (i+1)*u]
	}
	want, err := m.EvalBatch(pool)
	if err != nil {
		return nil, err
	}
	return &servedRelease{raw: rel.raw, rm: rm, pool: pool, want: want}, nil
}

// request is one prepared predict body and the logits its answer must
// carry, one row per sample.
type request struct {
	body []byte
	want [][]float64
}

func singleRequests(sr *servedRelease) ([]request, error) {
	reqs := make([]request, len(sr.pool))
	for i, in := range sr.pool {
		body, err := json.Marshal(api.PredictRequest{API: api.Version, Model: modelName, Input: in})
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, want: sr.want[i : i+1]}
	}
	return reqs, nil
}

// batchRequests builds n bodies of fleetBatch samples each, drawn from the
// pool with a seeded generator.
func batchRequests(sr *servedRelease, n int, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, n)
	for i := range reqs {
		in := make([][]float64, fleetBatch)
		want := make([][]float64, fleetBatch)
		for j := range in {
			k := rng.Intn(len(sr.pool))
			in[j], want[j] = sr.pool[k], sr.want[k]
		}
		body, err := json.Marshal(api.PredictRequest{API: api.Version, Model: modelName, Inputs: in})
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, want: want}
	}
	return reqs, nil
}

// listen serves h on a loopback port; stop closes the server and waits for
// its accept loop to end.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns http.ErrServerClosed once stop runs
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// replica is one in-process dacserve: a registry behind a loopback
// listener.
type replica struct {
	reg  *serve.Registry
	url  string
	stop func()
}

// startReplica builds a registry with opts, loads the model with load, and
// serves it, ready, as dacserve does after its start-up loads. Its engine
// computes on one thread, for the reason flowConfig gives.
func startReplica(opts serve.Options, load func(*serve.Registry) error) (*replica, error) {
	opts.Obs, opts.Threads = obs.NewRegistry(), 1
	reg := serve.NewRegistry(opts)
	if err := load(reg); err != nil {
		reg.Close()
		return nil, err
	}
	srv := serve.NewServer(reg, core.CIFARRelease().GroupBounds)
	srv.SetReady()
	url, stop, err := listen(srv.Handler())
	if err != nil {
		reg.Close()
		return nil, err
	}
	return &replica{reg: reg, url: url, stop: stop}, nil
}

func (rp *replica) close() {
	rp.stop()
	rp.reg.Close()
}

// sample is one timed request.
type sample struct {
	// due is when an open-loop request was scheduled; late is how far
	// behind schedule the generator handed it to a client.
	due  time.Time
	late time.Duration
	// lat runs from due (open loop) or from the send (closed loop) to the
	// last response byte at end; rtt always runs from the send.
	lat, rtt time.Duration
	end      time.Time
	// queue, compute and total are the server's X-Dac-Server-Timing parts.
	queue, compute, total time.Duration
	samples               int
	err                   error
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// do sends one request, times it, and checks the answer after the clock
// stops.
func do(c *http.Client, url string, rq request, s *sample) {
	sent := time.Now()
	resp, err := c.Post(url+"/v1/predict", "application/json", bytes.NewReader(rq.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.end = time.Now()
	s.rtt = s.end.Sub(sent)
	s.lat = s.rtt
	if !s.due.IsZero() {
		s.lat = s.end.Sub(s.due)
	}
	s.samples = len(rq.want)
	if err != nil {
		s.err = err
		return
	}
	for _, tm := range obs.ParseTimings(resp.Header.Get(obs.HeaderServerTiming)) {
		d := time.Duration(tm.Value) * time.Microsecond
		switch tm.Name {
		case "queue":
			s.queue = d
		case "compute":
			s.compute = d
		case "total":
			s.total = d
		}
	}
	s.err = checkPredict(resp.StatusCode, body, rq.want)
}

// checkPredict requires a 200 whose logits equal want bit for bit.
func checkPredict(status int, body []byte, want [][]float64) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var pr api.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if len(pr.Predictions) != len(want) {
		return fmt.Errorf("%d predictions for %d samples", len(pr.Predictions), len(want))
	}
	for i, p := range pr.Predictions {
		if !sameBits(p.Logits, want[i]) {
			return fmt.Errorf("sample %d: served logits differ from the offline EvalBatch", i)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// openLoop sends reqs[order[i]] at start+offsets[i] over the client
// connections, whether or not earlier requests have been answered. A
// request whose due time finds every connection busy waits, and the wait
// counts in its latency.
func openLoop(url string, reqs []request, order []int, offsets []time.Duration) []sample {
	samples := make([]sample, len(offsets))
	jobs := make(chan int, len(offsets)) // one slot per scheduled send: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for i := range jobs {
				do(cl, url, reqs[order[i]], &samples[i])
			}
		}()
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		samples[i].due = due
		samples[i].late = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples
}

// closedLoop runs the client connections for d, each sending its next
// request as soon as the previous answer arrives, drawing bodies from reqs
// with a generator seeded per client.
func closedLoop(url string, reqs []request, d time.Duration, seed int64) []sample {
	per := make([][]sample, clients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			cl := newClient()
			defer cl.CloseIdleConnections()
			for time.Now().Before(deadline) {
				var s sample
				do(cl, url, reqs[rng.Intn(len(reqs))], &s)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// poissonSchedule draws arrival offsets at rate per second over d, and a
// pool index for each arrival.
func poissonSchedule(rate float64, d time.Duration, poolLen int, seed int64) (offsets []time.Duration, order []int) {
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return offsets, order
		}
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
		order = append(order, rng.Intn(poolLen))
	}
}

// count folds the samples' checks into phase p.
func (r *runner) count(p *phase, ss []sample) {
	for _, s := range ss {
		r.check(p, s.err)
	}
}

func durationsMS(ss []sample, f func(sample) time.Duration) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(f(s)) / float64(time.Millisecond)
	}
	return xs
}

// latencyMetrics sets the end-to-end latency pair from the samples. The
// tail is the p95: over ten runs serve-open's p99 read 0.07-0.16 apart
// (interquartile distance over median), its p95 0.05-0.14.
func (r *runner) latencyMetrics(ss []sample) {
	lat := durationsMS(ss, func(s sample) time.Duration { return s.lat })
	r.e2e["lat_p50_ms"] = quantile(lat, 0.5)
	r.e2e["lat_tail_ms"] = quantile(lat, 0.95)
}

// windowRate is the median, over the whole rateWindows of a closed loop
// that started at start and ran for d, of the samples answered correctly
// per second. A median of windows, unlike the mean over the phase, does not
// move when the host stalls for a moment.
func windowRate(ss []sample, start time.Time, d time.Duration) float64 {
	counts := make([]float64, max(1, int(d/rateWindow)))
	for _, s := range ss {
		if i := int(s.end.Sub(start) / rateWindow); s.err == nil && i < len(counts) {
			counts[i] += float64(s.samples)
		}
	}
	return median(counts) / rateWindow.Seconds()
}

// warmUp runs an untimed closed loop against url, counting its checks into
// a phase of its own.
func (r *runner) warmUp(url string, reqs []request) {
	d := time.Duration(warmShare * r.seconds * float64(time.Second))
	p := r.phase("warmup")
	start := time.Now()
	r.count(p, closedLoop(url, reqs, d, r.seed))
	p.Seconds = time.Since(start).Seconds()
}

// serverLayers sets the per-layer metrics the X-Dac-Server-Timing headers
// give: queue wait and compute (of the slowest sample in a request), the
// time outside the server's own total (HTTP, JSON and, through a gateway,
// the proxy hop), and how much of each round trip those parts cover.
func (r *runner) serverLayers(ss []sample, overheadName string) {
	r.layers["serve.queue_ms.p50"] = quantile(durationsMS(ss, func(s sample) time.Duration { return s.queue }), 0.5)
	r.layers["serve.queue_ms.p99"] = quantile(durationsMS(ss, func(s sample) time.Duration { return s.queue }), 0.99)
	r.layers["serve.compute_ms.p50"] = quantile(durationsMS(ss, func(s sample) time.Duration { return s.compute }), 0.5)
	r.layers[overheadName] = quantile(durationsMS(ss, func(s sample) time.Duration { return s.rtt - s.total }), 0.5)
	cov := make([]float64, len(ss))
	for i, s := range ss {
		cov[i] = float64(s.queue+s.compute+s.rtt-s.total) / float64(s.rtt)
	}
	r.layers["trace.coverage"] = median(cov)
}

// engineStats reads one replica's /statsz counters for the served model.
func engineStats(url string) (serve.Snapshot, error) {
	var st struct {
		Models map[string]serve.Snapshot `json:"models"`
	}
	if err := getJSON(url+"/statsz", &st); err != nil {
		return serve.Snapshot{}, err
	}
	return st.Models[modelName], nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// engineDelta sums the replicas' engine counters over a phase.
func engineDelta(before, after []serve.Snapshot) (served, batches, rejected int64) {
	for i := range before {
		served += after[i].Served - before[i].Served
		batches += after[i].Batches - before[i].Batches
		rejected += after[i].Rejected - before[i].Rejected
	}
	return served, batches, rejected
}

func statsAll(reps []*replica) ([]serve.Snapshot, error) {
	out := make([]serve.Snapshot, len(reps))
	for i, rp := range reps {
		s, err := engineStats(rp.url)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// replayDecode times api.PredictRequest decoding of the workload's own
// bodies, four times over, the way the replica's handler decodes them, in
// milliseconds.
func replayDecode(reqs []request) ([]float64, error) {
	var xs []float64
	for k := 0; k < 4; k++ {
		for _, rq := range reqs {
			start := time.Now()
			var req api.PredictRequest
			err := json.NewDecoder(bytes.NewReader(rq.body)).Decode(&req)
			xs = append(xs, float64(time.Since(start))/float64(time.Millisecond))
			if err != nil {
				return nil, err
			}
		}
	}
	return xs, nil
}

// replayEval times Model.EvalBatch on batches of the pool on one thread, as
// the replicas' engines run it, in milliseconds.
func replayEval(m *nn.Model, pool [][]float64, batch, n int) ([]float64, error) {
	ctx := compute.New(1)
	defer ctx.Close()
	m.SetCtx(ctx)
	xs := make([]float64, n)
	for i := range xs {
		in := make([][]float64, batch)
		for j := range in {
			in[j] = pool[(i*batch+j)%len(pool)]
		}
		start := time.Now()
		if _, err := m.EvalBatch(in); err != nil {
			return nil, err
		}
		xs[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return xs, nil
}

// runServeOpen measures one dense replica under seeded Poisson arrivals of
// single-sample requests, then its capacity under a closed loop.
func runServeOpen(r *runner) error {
	var sr *servedRelease
	var rp *replica
	var reqs []request
	setup := r.phase("setup")
	setupStart := time.Now()
	err := r.timeSetups(func() error {
		var err error
		if sr, err = r.trainServed(); err != nil {
			return err
		}
		if reqs, err = singleRequests(sr); err != nil {
			return err
		}
		// dacserve defaults: MaxBatch 16, queue 256, 2 ms flush,
		// dequantized (dense) weights.
		rp, err = startReplica(serve.Options{}, func(reg *serve.Registry) error {
			_, err := reg.Load(modelName, bytes.NewReader(sr.raw))
			return err
		})
		r.check(setup, err)
		return err
	}, func() { rp.close() })
	setup.Seconds = time.Since(setupStart).Seconds()
	if err != nil {
		return err
	}
	defer rp.close()
	r.warmUp(rp.url, reqs)

	openDur := time.Duration(openShare * r.seconds * float64(time.Second))
	offsets, order := poissonSchedule(openRate, openDur, len(reqs), r.seed)
	before, err := statsAll([]*replica{rp})
	if err != nil {
		return err
	}
	open := r.phase("open")
	start := time.Now()
	ss := openLoop(rp.url, reqs, order, offsets)
	open.Seconds = time.Since(start).Seconds()
	r.count(open, ss)
	after, err := statsAll([]*replica{rp})
	if err != nil {
		return err
	}

	capDur := time.Duration((1 - openShare) * r.seconds * float64(time.Second))
	capPhase := r.phase("capacity")
	start = time.Now()
	cs := closedLoop(rp.url, reqs, capDur, r.seed)
	capPhase.Seconds = time.Since(start).Seconds()
	r.count(capPhase, cs)

	r.latencyMetrics(ss)
	r.e2e["throughput"] = windowRate(cs, start, capDur)

	if !r.trace {
		return nil
	}
	r.serverLayers(ss, "http.overhead_ms.p50")
	served, batches, rejected := engineDelta(before, after)
	r.layers["serve.batch_mean"] = float64(served) / float64(max(batches, 1))
	r.layers["serve.rejected"] = float64(rejected)
	r.layers["loadgen.overshoot_p99_ms"] = quantile(durationsMS(ss, func(s sample) time.Duration { return s.late }), 0.99)
	dec, err := replayDecode(reqs)
	if err != nil {
		return err
	}
	r.layers["api.decode_ms.b1"] = median(dec)
	m, _, err := modelio.Import(sr.rm)
	if err != nil {
		return err
	}
	ev, err := replayEval(m, sr.pool, 1, len(sr.pool))
	if err != nil {
		return err
	}
	r.layers["nn.eval_ms.b1"] = median(ev)
	return nil
}

// fleet is the fleet-batch deployment: two codebook-native replicas that
// pulled the release by digest from a shared store, behind a gateway.
type fleet struct {
	reps []*replica
	gw   *gateway.Gateway
	url  string
	stop func()
}

func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, rp := range f.reps {
		rp.close()
	}
}

// startFleet publishes raw into a fresh store under dir and brings up the
// replicas and the gateway (dacgateway defaults) over loopback.
func startFleet(raw []byte, dir string) (*fleet, error) {
	store, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	digest, err := serve.PublishRelease(store, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for i := 0; i < 2; i++ {
		rp, err := startReplica(serve.Options{NativeQuant: true, Store: store}, func(reg *serve.Registry) error {
			_, err := reg.LoadDigest(modelName, digest, serve.ModeAuto)
			return err
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.reps = append(f.reps, rp)
	}
	f.gw = gateway.New(gateway.Options{ProbeInterval: 2 * time.Second, Obs: obs.NewRegistry()})
	for i, rp := range f.reps {
		if _, err := f.gw.AddReplica(fmt.Sprintf("r%d", i), rp.url); err != nil {
			f.close()
			return nil, err
		}
	}
	f.gw.SetAssignment(modelName, digest)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	n := f.gw.ProbeAll(ctx)
	cancel()
	if n != len(f.reps) {
		f.close()
		return nil, fmt.Errorf("gateway sees %d of %d replicas ready", n, len(f.reps))
	}
	f.gw.Start()
	if f.url, f.stop, err = listen(gateway.NewServer(f.gw).Handler()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// gatewayCounters reads the gateway's own metrics.
func gatewayCounters(url string) (map[string]int64, error) {
	var snap obs.Snapshot
	if err := getJSON(url+"/metricsz?format=json", &snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// runFleetBatch measures a closed loop of 32-sample requests through the
// gateway to two codebook-native replicas.
func runFleetBatch(r *runner) error {
	var sr *servedRelease
	var fl *fleet
	var reqs []request
	setup := r.phase("setup")
	setupStart := time.Now()
	n := 0
	err := r.timeSetups(func() error {
		var err error
		if sr, err = r.trainServed(); err != nil {
			return err
		}
		if reqs, err = batchRequests(sr, 16, r.seed); err != nil {
			return err
		}
		n++
		fl, err = startFleet(sr.raw, filepath.Join(r.tmp, fmt.Sprintf("store-%d", n)))
		r.check(setup, err)
		return err
	}, func() { fl.close() })
	setup.Seconds = time.Since(setupStart).Seconds()
	if err != nil {
		return err
	}
	defer fl.close()
	r.warmUp(fl.url, reqs)

	before, err := statsAll(fl.reps)
	if err != nil {
		return err
	}
	gwBefore, err := gatewayCounters(fl.url)
	if err != nil {
		return err
	}
	ph := r.phase("closed")
	start := time.Now()
	d := time.Duration(r.seconds * float64(time.Second))
	ss := closedLoop(fl.url, reqs, d, r.seed)
	ph.Seconds = time.Since(start).Seconds()
	r.count(ph, ss)
	r.latencyMetrics(ss)
	r.e2e["throughput"] = windowRate(ss, start, d)

	if !r.trace {
		return nil
	}
	after, err := statsAll(fl.reps)
	if err != nil {
		return err
	}
	gwAfter, err := gatewayCounters(fl.url)
	if err != nil {
		return err
	}
	r.serverLayers(ss, "gateway.overhead_ms.p50")
	served, batches, rejected := engineDelta(before, after)
	r.layers["serve.batch_mean"] = float64(served) / float64(max(batches, 1))
	r.layers["serve.rejected"] = float64(rejected)
	delta := func(name string) int64 { return gwAfter[name] - gwBefore[name] }
	r.layers["gateway.retries"] = float64(delta("gateway_retries_total"))
	r.layers["gateway.sheds"] = float64(delta("gateway_sheds_total"))
	var shares []int64
	var total int64
	for i := range fl.reps {
		n := delta(fmt.Sprintf(`gateway_replica_requests_total{replica="r%d"}`, i))
		shares = append(shares, n)
		total += n
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i] > shares[j] })
	r.layers["gateway.replica_share_max"] = float64(shares[0]) / float64(max(total, 1))
	dec, err := replayDecode(reqs)
	if err != nil {
		return err
	}
	r.layers["api.decode_ms.b32"] = median(dec)
	m, _, err := modelio.ImportNative(sr.rm)
	if err != nil {
		return err
	}
	ev, err := replayEval(m, sr.pool, 16, 32)
	if err != nil {
		return err
	}
	r.layers["nn.eval_ms.b16"] = median(ev)
	return nil
}
