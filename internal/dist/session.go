// Package dist implements deterministic multi-process data parallelism for
// the trainer: a coordinator (rank 0) and N-1 workers executing the same
// training program in lockstep, sharding each batch's gradient computation
// and exchanging per-shard gradient partials over one loopback TCP
// connection per worker.
//
// The design goal is the repo's signature bit-reproducibility, extended
// from thread counts to process counts: a run's result is a pure function
// of its semantic configuration (which includes the shard count), never of
// the (threads × processes) execution shape. Three properties deliver it:
//
//   - Shard boundaries are a pure function of (batch size, shard count)
//     via dataset.Shard, identical on every rank.
//   - Each shard's partial is produced by the existing per-sample
//     sample-order reduction (bit-identical at any thread count), and the
//     global reduction is a fixed left fold over shards in ascending shard
//     index — never "whoever arrives first".
//   - Batch-norm running statistics are deferred and replayed per shard in
//     the same shard order on every rank (nn.BatchNorm2D.DeferStats).
//
// Workers find the coordinator through a 0600 rendezvous file in the run's
// dist directory, holding its address and a per-session secret that every
// hello must carry: only a process that can read the run's directory can
// add gradients. See DESIGN.md §15 for the full protocol.
package dist

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// Options configures a rank's view of a distributed run.
type Options struct {
	// Dir is the run's dist directory, where the coordinator publishes its
	// rendezvous file; every rank of a run names the same one.
	Dir string
	// Rank identifies this process: 0 is the coordinator, 1..Procs-1 are
	// workers.
	Rank int
	// Procs is the total process count.
	Procs int
	// Timeout bounds every wait on a peer (default 10 minutes): for the
	// rendezvous file, for workers to connect, and for each read or write
	// on a connection whose peer went silent. A peer that exits ends its
	// connection, which fails the run at once (DESIGN.md §15).
	Timeout time.Duration
}

// Session is one rank's handle on a distributed run. One session serves
// any number of sequential training runs over the same connections.
type Session struct {
	rank, procs int
	timeout     time.Duration
	// conns holds a connection per peer, by rank: a coordinator's workers
	// (nil until they connect), a worker's coordinator at 0.
	conns []net.Conn
	man   Manifest // the run in progress
	// The coordinator's listener, session secret and rendezvous file.
	ln     *net.TCPListener
	secret []byte
	rdv    string
}

// New opens a session: the coordinator listens on loopback and publishes
// its rendezvous file in o.Dir; a worker dials it and sends its hello.
func New(o Options) (*Session, error) {
	if o.Procs < 2 {
		return nil, fmt.Errorf("dist: %d processes (a distributed run needs at least 2)", o.Procs)
	}
	if o.Rank < 0 || o.Rank >= o.Procs {
		return nil, fmt.Errorf("dist: rank %d out of range [0,%d)", o.Rank, o.Procs)
	}
	if o.Dir == "" {
		return nil, fmt.Errorf("dist: dist directory is required")
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Minute
	}
	s := &Session{rank: o.Rank, procs: o.Procs, timeout: o.Timeout, conns: make([]net.Conn, o.Procs)}
	rdv := filepath.Join(o.Dir, "rendezvous")
	if s.Coordinator() {
		if err := s.listen(rdv); err != nil {
			return nil, err
		}
		return s, nil
	}
	// A hand-started worker may start before its coordinator wrote the
	// rendezvous file, or find a stale one: it retries until the timeout.
	var err error
	for deadline := time.Now().Add(s.timeout); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if s.conns[0], err = s.dial(rdv); err == nil {
			return s, nil
		}
	}
	return nil, fmt.Errorf("dist: rank %d reached no coordinator within %v: %w", s.rank, s.timeout, err)
}

// listen opens the coordinator's loopback listener and publishes its
// address and a fresh secret at path, renamed into place whole.
func (s *Session) listen(path string) error {
	s.secret = make([]byte, 32)
	if _, err := rand.Read(s.secret); err != nil {
		return fmt.Errorf("dist: session secret: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return fmt.Errorf("dist: listen: %w", err)
	}
	tmp := path + ".tmp"
	err = os.WriteFile(tmp, fmt.Appendf(nil, "%s %x\n", ln.Addr(), s.secret), 0o600)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		ln.Close()
		os.Remove(tmp)
		return fmt.Errorf("dist: publish rendezvous file: %w", err)
	}
	s.ln, s.rdv = ln, path
	return nil
}

// dial reads the rendezvous file at path, connects to the coordinator it
// names and sends the hello: the session secret, then this rank.
func (s *Session) dial(path string) (net.Conn, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var addr string
	var secret []byte
	if _, err := fmt.Sscanf(string(raw), "%s %x", &addr, &secret); err != nil {
		return nil, fmt.Errorf("malformed rendezvous file %s: %v", path, err)
	}
	conn, err := net.DialTimeout("tcp", addr, s.timeout)
	if err != nil {
		return nil, err
	}
	conn.SetWriteDeadline(time.Now().Add(s.timeout))
	if err := writeFrames(conn, binary.BigEndian.AppendUint32(secret, uint32(s.rank))); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// admit waits, bounded by the timeout, until every worker rank has sent
// a hello with the session secret (compared in constant time). Any other
// connection is closed and not counted.
func (s *Session) admit() error {
	deadline := time.Now().Add(s.timeout)
	s.ln.SetDeadline(deadline)
	n := len(s.secret)
	for r := 1; r < s.procs; r++ {
		for s.conns[r] == nil {
			conn, err := s.ln.Accept()
			if err != nil {
				return fmt.Errorf("dist: waiting for rank %d to connect: %w", r, err)
			}
			conn.SetReadDeadline(deadline)
			hello, err := readFrame(conn, n+4)
			rank := 0
			if err == nil && len(hello) == n+4 && subtle.ConstantTimeCompare(hello[:n], s.secret) == 1 {
				rank = int(binary.BigEndian.Uint32(hello[n:]))
			}
			if rank > 0 && rank < s.procs && s.conns[rank] == nil {
				s.conns[rank] = conn
			} else {
				conn.Close()
			}
		}
	}
	return nil
}

// Begin sends every worker the begin verdict for a run.
func (s *Session) Begin(man Manifest) error {
	if man.Token == "" {
		return fmt.Errorf("dist: Begin with empty token")
	}
	s.man = man
	return s.verdict(&ctl{Kind: "begin", Manifest: man})
}

// Complete sends every worker the complete verdict for a run, which the
// coordinator served from cache. A run gets one verdict, Begin or Complete.
func (s *Session) Complete(token string) error {
	return s.verdict(&ctl{Kind: "complete", Manifest: Manifest{Token: token}})
}

func (s *Session) verdict(c *ctl) error {
	body, err := encodeFramed(ctlMagic, c)
	if err == nil {
		err = s.admit()
	}
	for r := 1; r < s.procs && err == nil; r++ {
		err = s.send(r, body)
	}
	return err
}

// AwaitBegin reads the coordinator's verdict for the run named by token:
// (manifest, false, nil) when the run begins, or (zero, true, nil) when the
// coordinator served it from cache and the caller should load the result.
func (s *Session) AwaitBegin(token string) (Manifest, bool, error) {
	body, err := s.recv(0, maxCtlFrame)
	if err != nil {
		return Manifest{}, false, err
	}
	c, err := decodeCtl(body)
	if err == nil && c.Manifest.Token != token {
		err = fmt.Errorf("dist: rank %d awaited the verdict for run %.8s but got %s for run %.8s (the ranks' run sequences diverged)",
			s.rank, token, c.Kind, c.Manifest.Token)
	}
	if err != nil {
		return Manifest{}, false, err
	}
	s.man = c.Manifest
	return c.Manifest, c.Kind == "complete", nil
}

// Exchange sends this rank's owned partials of one step (own, ascending)
// and returns every other shard's, ascending. The coordinator reads every
// worker's shards before it sends each worker the rest, so no rank writes
// to a peer blocked writing: no socket buffer size can deadlock it.
func (s *Session) Exchange(own []*Partial) ([]*Partial, error) {
	n := s.man.Shards
	all, bodies := make([]*Partial, n), make([][]byte, n)
	for _, p := range own {
		var err error
		if bodies[p.Shard], err = EncodePartial(p); err != nil {
			return nil, err
		}
		all[p.Shard] = p
	}
	lo, hi := RankShards(n, s.procs, s.rank)
	var err error
	if s.Worker() {
		err = s.send(0, bodies[lo:hi]...)
	}
	// Receive every shard this rank does not own, in shard order: a worker
	// all from the coordinator, the coordinator each from its owner.
	start := time.Now()
	for r := 0; r < s.procs && err == nil; r++ {
		from := r
		if s.Worker() {
			from = 0
		}
		rlo, rhi := RankShards(n, s.procs, r)
		for k := rlo; k < rhi && err == nil && r != s.rank; k++ {
			all[k], bodies[k], err = s.recvPartial(from, k, own[0])
		}
	}
	wait := time.Since(start)
	// The coordinator forwards the frame bodies as they came.
	for r := 1; r < s.procs && err == nil && s.Coordinator(); r++ {
		rlo, rhi := RankShards(n, s.procs, r)
		err = s.send(r, append(bodies[:rlo:rlo], bodies[rhi:]...)...)
	}
	if err != nil {
		return nil, err
	}
	if obs.Enabled() {
		obs.Default.Counter("dist_exchange_wait_ns_total").Add(int64(wait))
	}
	return append(all[:lo:lo], all[hi:]...), nil
}

// recvPartial reads shard k's partial of ref's step from peer r, checking
// it is that partial and sized as the manifest says.
func (s *Session) recvPartial(r, k int, ref *Partial) (*Partial, []byte, error) {
	body, err := s.recv(r, maxPartialFrame(&s.man))
	if err != nil {
		return nil, nil, err
	}
	p, err := DecodePartial(body)
	if err == nil && (p.Token != s.man.Token || p.Epoch != ref.Epoch || p.Step != ref.Step || p.Shard != k ||
		len(p.Grad) != s.man.ParamCount || len(p.BNMoments) != s.man.Moments) {
		err = fmt.Errorf("got epoch %d step %d shard %d of run %.8s with %d+%d values, want shard %d of this step with %d+%d",
			p.Epoch, p.Step, p.Shard, p.Token, len(p.Grad), len(p.BNMoments), k, s.man.ParamCount, s.man.Moments)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("dist: rank %d: partial from rank %d: %w", s.rank, r, err)
	}
	return p, body, nil
}

// send writes frames to peer r, within the timeout.
func (s *Session) send(r int, bodies ...[]byte) error {
	s.conns[r].SetWriteDeadline(time.Now().Add(s.timeout))
	if err := writeFrames(s.conns[r], bodies...); err != nil {
		return fmt.Errorf("dist: rank %d: write to rank %d: %w", s.rank, r, err)
	}
	return nil
}

// recv reads a frame of at most max bytes from peer r, within the timeout.
func (s *Session) recv(r, max int) ([]byte, error) {
	s.conns[r].SetReadDeadline(time.Now().Add(s.timeout))
	body, err := readFrame(s.conns[r], max)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d: read from rank %d: %w", s.rank, r, err)
	}
	return body, nil
}

// Close closes every peer connection and, on the coordinator, the
// listener, and removes the rendezvous file.
func (s *Session) Close() {
	for _, c := range s.conns {
		if c != nil {
			c.Close()
		}
	}
	if s.ln != nil {
		s.ln.Close()
		os.Remove(s.rdv)
	}
}

// Rank returns this process's rank (0 = coordinator).
func (s *Session) Rank() int { return s.rank }

// Procs returns the total process count of the run.
func (s *Session) Procs() int { return s.procs }

// Coordinator reports whether this rank is the coordinator.
func (s *Session) Coordinator() bool { return s.rank == 0 }

// Worker reports whether this rank is a worker.
func (s *Session) Worker() bool { return s.rank != 0 }

// RankShards returns the contiguous shard range [lo, hi) owned by rank of
// a run with the given shard and process counts — the same balanced
// partition dataset.Shard applies to batches, so ownership is a pure
// function of (shards, procs, rank) and identical on every process.
func RankShards(shards, procs, rank int) (lo, hi int) {
	return dataset.Shard(shards, rank, procs)
}
