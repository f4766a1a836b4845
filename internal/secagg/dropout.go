package secagg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"sqm/internal/field"
	"sqm/internal/obs"
	"sqm/internal/randx"
	"sqm/internal/retry"
	"sqm/internal/shamir"
	"sqm/internal/transport"
)

// ErrQuorumLoss reports that too few clients survived a round for the
// cohort to recover the dropped clients' masks: fewer than t+1 alive
// with threshold t. The aggregate is unrecoverable without breaking the
// masking, so the round must be abandoned rather than degraded.
var ErrQuorumLoss = errors.New("secagg: quorum lost, too few surviving clients to unmask the aggregate")

// TolerantGroup is a Group whose pairwise seeds are additionally
// Shamir-shared across the cohort with threshold t, the dropout-recovery
// scheme of Bonawitz et al.: if a client dies after its peers have
// already folded its pair masks into their contributions, any t+1
// survivors can reconstruct the dead client's seeds and the aggregator
// cancels the orphaned masks instead of aborting. Up to n-(t+1) clients
// may drop per round; one more and reconstruction (and hence the round)
// fails with ErrQuorumLoss.
//
// Semi-honest model, like the rest of the package: reconstruction
// reveals only the *dropped* clients' mask seeds, never a surviving
// client's values, and a dropped client's data contribution is excluded
// entirely — degradation trades its data for round liveness, not for
// privacy.
type TolerantGroup struct {
	*Group
	t int
	// seedShares[i][j][h] is holder h's Shamir share of pairSeed[i][j]
	// (i < j). In a deployment each holder stores only its own column;
	// the aggregator collects t+1 of them when i or j drops.
	seedShares [][][]field.Elem
}

// NewTolerantGroup prepares a dropout-tolerant cohort of n clients with
// recovery threshold t: any t+1 survivors can unmask a dead client,
// any t or fewer colluders learn nothing about a seed they don't own.
// Requires 1 <= t < n.
func NewTolerantGroup(n, length int, t int, seed uint64) (*TolerantGroup, error) {
	g, err := NewGroup(n, length, seed)
	if err != nil {
		return nil, err
	}
	if t < 1 || t >= n {
		return nil, fmt.Errorf("secagg: recovery threshold t=%d out of range [1, %d)", t, n)
	}
	tg := &TolerantGroup{Group: g, t: t}
	// Pair seeds must be valid field elements to be Shamir-shared; the
	// group's raw uint64 seeds are reduced into the field (the mask
	// streams key off the reduced value, so sharing and masking agree).
	shareRNG := randx.New(seed ^ 0x5ade5ade5)
	tg.seedShares = make([][][]field.Elem, n)
	for i := 0; i < n; i++ {
		tg.seedShares[i] = make([][]field.Elem, n)
		for j := i + 1; j < n; j++ {
			g.pairSeed[i][j] %= field.Modulus
			tg.seedShares[i][j] = shamir.Share(field.Elem(g.pairSeed[i][j]), t, n, shareRNG)
		}
	}
	return tg, nil
}

// Threshold returns the recovery threshold t (quorum is t+1).
func (g *TolerantGroup) Threshold() int { return g.t }

// recoverSeed reconstructs pairSeed[i][j] from the shares of the first
// t+1 alive holders. Callers must have checked the quorum.
func (g *TolerantGroup) recoverSeed(i, j int, alive []bool) field.Elem {
	points := make([]field.Elem, 0, g.t+1)
	shares := make([]field.Elem, 0, g.t+1)
	all := shamir.PartyPoints(g.n)
	for h := 0; h < g.n && len(points) <= g.t; h++ {
		if !alive[h] {
			continue
		}
		points = append(points, all[h])
		shares = append(shares, g.seedShares[i][j][h])
	}
	return shamir.Reconstruct(points, shares)
}

// AggregateDropout is the server's step under dropouts: masked[j] is
// client j's contribution, or nil if j dropped after masking was
// announced. The survivors' sum retains the dropped clients' orphaned
// pairwise masks; the server reconstructs each dropped client's pair
// seeds from the surviving Shamir shares and cancels those masks, then
// decodes the signed totals over the surviving cohort only. Fails with
// ErrQuorumLoss when fewer than t+1 clients survive.
func (g *TolerantGroup) AggregateDropout(round uint64, masked [][]field.Elem) ([]int64, error) {
	if len(masked) != g.n {
		return nil, fmt.Errorf("secagg: got %d contribution slots, want %d", len(masked), g.n)
	}
	alive := make([]bool, g.n)
	nAlive := 0
	for j, m := range masked {
		if m != nil {
			alive[j] = true
			nAlive++
		}
	}
	if nAlive < g.t+1 {
		return nil, fmt.Errorf("%w: %d alive of %d, need %d", ErrQuorumLoss, nAlive, g.n, g.t+1)
	}
	acc := make([]field.Elem, g.length)
	for _, m := range masked {
		if m == nil {
			continue
		}
		if len(m) != g.length {
			return nil, fmt.Errorf("secagg: contribution length %d, want %d", len(m), g.length)
		}
		for k := range acc {
			acc[k] = field.Add(acc[k], m[k])
		}
	}
	// Cancel the masks orphaned by each dropped client d: every alive
	// peer j folded the (j, d) pair mask into its contribution with the
	// sign of its side, and d's own cancelling share never arrived.
	for d := 0; d < g.n; d++ {
		if alive[d] {
			continue
		}
		for j := 0; j < g.n; j++ {
			if j == d || !alive[j] {
				continue
			}
			seed := g.recoverSeed(min(j, d), max(j, d), alive)
			// Applied as d would have applied it, the stream cancels what
			// alive j folded in with the sign of its own side.
			field.PairMask(acc, d, j, pairStream(uint64(seed), round))
		}
	}
	out := make([]int64, g.length)
	for k, v := range acc {
		out[k] = field.ToInt64(v)
	}
	return out, nil
}

// Contribute masks client j's values for the round and sends them to
// the aggregator at endpoint 0 over conn. It is the client half of
// CollectDropout.
func (g *TolerantGroup) Contribute(conn transport.PartyConn, round uint64, values []int64) error {
	masked, err := g.Mask(conn.ID(), round, values)
	if err != nil {
		return err
	}
	buf := make([]byte, 8*g.length)
	for k, v := range masked {
		binary.BigEndian.PutUint64(buf[8*k:], uint64(v))
	}
	return conn.Send(0, buf)
}

// CollectOptions tunes the aggregator's dropout detection.
type CollectOptions struct {
	// Timeout bounds each receive attempt; 0 means 200ms. A peer is
	// only declared dropped after the retry budget of timed-out
	// receives is spent — a closed link declares it immediately.
	Timeout time.Duration
	// Retries is the per-peer receive attempt budget; values below 1
	// mean 1.
	Retries int
	// Backoff is the base wait between receive attempts (doubled per
	// retry, jittered); 0 means no wait between attempts.
	Backoff time.Duration
	// Seed keys the retry jitter stream.
	Seed uint64
	// Recorder receives secagg.collect retry telemetry; nil disables.
	Recorder obs.Recorder
}

// DropoutReport is the outcome of one degraded-capable collection.
type DropoutReport struct {
	// Totals is the decoded aggregate over the surviving cohort.
	Totals []int64
	// Dropped lists the clients declared dead this round.
	Dropped []int
	// Alive is the number of surviving clients (including the
	// aggregator).
	Alive int
}

// CollectDropout is the aggregator's half of a degraded-capable round:
// endpoint 0 masks its own values, then collects each peer's masked
// contribution under the options' deadline and retry budget. Peers
// whose link is closed, or whose receives exhaust the budget with
// timeouts, are declared dropped; the round completes through
// AggregateDropout as long as a quorum of t+1 clients (including the
// aggregator) survives.
func (g *TolerantGroup) CollectDropout(conn transport.PartyConn, round uint64, values []int64, opt CollectOptions) (*DropoutReport, error) {
	if conn.ID() != 0 {
		return nil, fmt.Errorf("secagg: CollectDropout must run on endpoint 0, got %d", conn.ID())
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = 200 * time.Millisecond
	}
	own, err := g.Mask(0, round, values)
	if err != nil {
		return nil, err
	}
	masked := make([][]field.Elem, g.n)
	masked[0] = own
	report := &DropoutReport{Alive: 1}
	conn.SetRecvTimeout(timeout)
	defer conn.SetRecvTimeout(0)
	for from := 1; from < g.n; from++ {
		policy := retry.Policy{
			Attempts: opt.Retries,
			Base:     opt.Backoff,
			Jitter:   0.5,
			Seed:     opt.Seed ^ uint64(from) ^ round,
			Recorder: opt.Recorder,
			Name:     "secagg.collect",
		}
		if policy.Base <= 0 {
			policy.Sleep = func(time.Duration) {}
		}
		var buf []byte
		err := policy.Do(func(int) error {
			b, err := conn.Recv(from)
			if err != nil {
				if errors.Is(err, transport.ErrClosed) {
					// The link is gone; retrying cannot help.
					return retry.Permanent(err)
				}
				return err
			}
			buf = b
			return nil
		})
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || errors.Is(err, transport.ErrTimeout) {
				report.Dropped = append(report.Dropped, from)
				continue
			}
			return nil, err
		}
		if len(buf) != 8*g.length {
			return nil, fmt.Errorf("secagg: contribution from client %d has %d bytes, want %d", from, len(buf), 8*g.length)
		}
		vec := make([]field.Elem, g.length)
		for k := range vec {
			vec[k] = field.Elem(binary.BigEndian.Uint64(buf[8*k:]))
		}
		masked[from] = vec
		report.Alive++
	}
	totals, err := g.AggregateDropout(round, masked)
	if err != nil {
		return nil, err
	}
	report.Totals = totals
	return report, nil
}

// AggregateDropoutOver runs one degraded-capable round over a mesh:
// every client on its own goroutine, clients listed in drop simply
// never contribute (as if they died before sending), endpoint 0
// collects under opt and completes through dropout recovery. Intended
// for tests and benchmarks; real sessions drive Contribute and
// CollectDropout from their own actors.
func (g *TolerantGroup) AggregateDropoutOver(mesh transport.Mesh, round uint64, values [][]int64, drop []int, opt CollectOptions) (*DropoutReport, error) {
	if mesh.Parties() != g.n {
		return nil, fmt.Errorf("secagg: mesh has %d endpoints for %d clients", mesh.Parties(), g.n)
	}
	if len(values) != g.n {
		return nil, fmt.Errorf("secagg: got %d contributions, want all %d clients", len(values), g.n)
	}
	dropped := make([]bool, g.n)
	for _, d := range drop {
		if d <= 0 || d >= g.n {
			return nil, fmt.Errorf("secagg: cannot drop client %d (aggregator 0 and range [1,%d) only)", d, g.n)
		}
		dropped[d] = true
	}
	errs := make([]error, g.n)
	var wg sync.WaitGroup
	var report *DropoutReport
	for j := 1; j < g.n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			if dropped[j] {
				// A dead client: close its endpoint so peers see ErrClosed
				// rather than a silent stall where the mesh supports it.
				mesh.Conn(j).Close()
				return
			}
			errs[j] = g.Contribute(mesh.Conn(j), round, values[j])
		}(j)
	}
	report, errs[0] = g.CollectDropout(mesh.Conn(0), round, values[0], opt)
	// Contributions never block on the collector (sends are pumped), so
	// the stragglers — if any — are bounded by the collector's own
	// deadline budget having already expired.
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return report, nil
}
