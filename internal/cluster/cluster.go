// Fleet membership and routing: a Cluster knows the static node list,
// probes peers for liveness, and exposes a consistent-hash view over
// the members currently believed alive. Detection is both active
// (periodic /healthz probes) and passive (a failed forward marks the
// peer down immediately), so routing converges at request speed rather
// than probe speed when a node dies mid-stream.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// Node is one static fleet member.
type Node struct {
	ID  string `json:"id"`
	URL string `json:"url"` // advertise base URL, e.g. http://host:8080
}

// Config describes the fleet from one node's point of view.
type Config struct {
	// Self is this node's ID; it must appear in Nodes.
	Self string
	// Nodes is the full static membership, including self.
	Nodes []Node
	// VNodes is the virtual nodes per member (<=0 → DefaultVNodes).
	VNodes int
	// ProbeInterval spaces liveness probes (<=0 → 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (<=0 → 1s).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive probe failures before a peer is
	// declared dead (<=0 → 2). Recovery takes one successful probe.
	FailAfter int
	// OnChange, when set, runs after every membership transition (a
	// peer dying or returning). The server hooks job adoption here.
	OnChange func()
	// Client issues probes and forwards; nil uses a per-cluster client
	// with the probe timeout on probes and no timeout on forwards
	// (batch streams are long-lived).
	Client *http.Client
}

// MemberStatus is one node's row in the /v1/cluster report.
type MemberStatus struct {
	ID        string    `json:"id"`
	URL       string    `json:"url"`
	Self      bool      `json:"self,omitempty"`
	Alive     bool      `json:"alive"`
	Share     float64   `json:"share"` // fraction of the hash space owned
	LastProbe time.Time `json:"last_probe,omitzero"`
	Failures  int       `json:"consecutive_failures,omitempty"`
}

// Cluster is one node's live view of the fleet. Create with New, start
// probing with Start, stop with Close.
type Cluster struct {
	cfg    Config
	self   Node
	nodes  []Node // static membership, sorted by ID
	client *http.Client

	mu    sync.Mutex
	down  map[string]int // peer ID -> consecutive failures (>=FailAfter means dead)
	probe map[string]time.Time
	ring  *Ring // over alive members; rebuilt on transitions

	// peerAuth, when set, is stamped on every outbound forward and peer
	// fetch (X-Draid-Peer-Auth) so receivers can tell fleet-internal
	// requests from client ones. Set once at startup via SetPeerAuth,
	// before any traffic.
	peerAuth string

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates the membership and returns a cluster view with every
// node optimistically alive (probing corrects that within an interval).
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self node ID")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	seen := make(map[string]bool)
	var self *Node
	nodes := append([]Node(nil), cfg.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for i := range nodes {
		n := nodes[i]
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: node %d has no ID", i)
		}
		if !ValidNodeID(n.ID) {
			return nil, fmt.Errorf("cluster: node ID %q: only letters, digits, '.', '_', '-' allowed", n.ID)
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		seen[n.ID] = true
		if n.URL == "" {
			return nil, fmt.Errorf("cluster: node %s has no URL", n.ID)
		}
		if _, err := url.Parse(n.URL); err != nil {
			return nil, fmt.Errorf("cluster: node %s URL: %w", n.ID, err)
		}
		nodes[i].URL = strings.TrimRight(n.URL, "/")
		if n.ID == cfg.Self {
			self = &nodes[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: self %q not in the node list", cfg.Self)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Cluster{
		cfg:    cfg,
		self:   *self,
		nodes:  nodes,
		client: client,
		down:   make(map[string]int),
		probe:  make(map[string]time.Time),
		stop:   make(chan struct{}),
	}
	c.rebuildRing()
	return c, nil
}

// Start launches the background probe loop.
func (c *Cluster) Start() {
	c.wg.Add(1)
	go c.probeLoop()
}

// Close stops probing.
func (c *Cluster) Close() {
	c.mu.Lock()
	select {
	case <-c.stop:
		c.mu.Unlock()
		return
	default:
	}
	close(c.stop)
	c.mu.Unlock()
	c.wg.Wait()
}

// Self returns this node.
func (c *Cluster) Self() Node { return c.self }

// Nodes returns the full static membership, sorted by ID.
func (c *Cluster) Nodes() []Node { return append([]Node(nil), c.nodes...) }

// VNodes returns the virtual nodes per member.
func (c *Cluster) VNodes() int { return c.cfg.VNodes }

// SetOnChange replaces the membership-transition callback. Call it
// before Start and before routing traffic — it is not synchronized
// against in-flight transitions.
func (c *Cluster) SetOnChange(fn func()) { c.cfg.OnChange = fn }

// SetPeerAuth installs the fleet-internal authentication secret
// stamped on outbound forwards and peer fetches. The server derives it
// from the shared master key, so every member of one data dir holds
// the same secret and nothing new needs distributing. Call before
// Start, alongside SetOnChange — it is not synchronized either.
func (c *Cluster) SetPeerAuth(secret string) { c.peerAuth = secret }

// ValidNodeID restricts member IDs to a charset safe for embedding in
// job IDs, log file names, and lock file names on the shared dir.
func ValidNodeID(id string) bool {
	if id == "" || id == "." || id == ".." {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// rebuildRing recomputes the ring over alive members. Caller holds mu.
func (c *Cluster) rebuildRing() {
	var alive []string
	for _, n := range c.nodes {
		if c.down[n.ID] < c.cfg.FailAfter {
			alive = append(alive, n.ID)
		}
	}
	c.ring = NewRing(alive, c.cfg.VNodes)
}

// Owner returns the live member owning jobID. With every peer down it
// falls back to self so the fleet degrades to single-node service
// instead of refusing requests.
func (c *Cluster) Owner(jobID string) Node {
	c.mu.Lock()
	id := c.ring.Owner(jobID)
	c.mu.Unlock()
	if id == "" {
		return c.self
	}
	for _, n := range c.nodes {
		if n.ID == id {
			return n
		}
	}
	return c.self
}

// IsLocal reports whether this node owns jobID.
func (c *Cluster) IsLocal(jobID string) bool { return c.Owner(jobID).ID == c.self.ID }

// Alive reports whether a member is currently believed alive.
func (c *Cluster) Alive(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[id] < c.cfg.FailAfter
}

// MarkDown records a passive failure observation (a forward that could
// not reach the peer), immediately declaring it dead and rebuilding the
// ring. Probes will resurrect it if it comes back.
func (c *Cluster) MarkDown(id string) {
	if id == c.self.ID {
		return
	}
	c.mu.Lock()
	wasAlive := c.down[id] < c.cfg.FailAfter
	c.down[id] = c.cfg.FailAfter
	if wasAlive {
		c.rebuildRing()
	}
	c.mu.Unlock()
	if wasAlive && c.cfg.OnChange != nil {
		c.cfg.OnChange()
	}
}

// markProbe folds one probe result in and reports whether liveness
// flipped.
func (c *Cluster) markProbe(id string, ok bool) bool {
	c.mu.Lock()
	wasAlive := c.down[id] < c.cfg.FailAfter
	if ok {
		c.down[id] = 0
	} else if !wasAlive {
		// Already dead: don't let the counter run away.
		c.down[id] = c.cfg.FailAfter
	} else {
		c.down[id]++
	}
	c.probe[id] = time.Now()
	isAlive := c.down[id] < c.cfg.FailAfter
	if isAlive != wasAlive {
		c.rebuildRing()
	}
	c.mu.Unlock()
	return isAlive != wasAlive
}

func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeOnce()
		}
	}
}

// probeOnce checks every peer's /healthz concurrently and fires
// OnChange once if any liveness flipped.
func (c *Cluster) probeOnce() {
	var wg sync.WaitGroup
	changed := make([]bool, len(c.nodes))
	for i, n := range c.nodes {
		if n.ID == c.self.ID {
			continue
		}
		wg.Add(1)
		go func(i int, n Node) {
			defer wg.Done()
			changed[i] = c.markProbe(n.ID, c.probeNode(n))
		}(i, n)
	}
	wg.Wait()
	for _, ch := range changed {
		if ch && c.cfg.OnChange != nil {
			c.cfg.OnChange()
			return
		}
	}
}

func (c *Cluster) probeNode(n Node) bool {
	req, err := http.NewRequest(http.MethodGet, n.URL+"/healthz", nil)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	resp, err := c.client.Do(req.WithContext(ctx))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Status snapshots the fleet for /v1/cluster.
func (c *Cluster) Status() []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	shares := c.ring.Shares()
	out := make([]MemberStatus, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = MemberStatus{
			ID:        n.ID,
			URL:       n.URL,
			Self:      n.ID == c.self.ID,
			Alive:     c.down[n.ID] < c.cfg.FailAfter,
			Share:     shares[n.ID],
			LastProbe: c.probe[n.ID],
			Failures:  c.down[n.ID],
		}
	}
	return out
}

// AliveCount returns how many members are currently believed alive.
func (c *Cluster) AliveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, node := range c.nodes {
		if c.down[node.ID] < c.cfg.FailAfter {
			n++
		}
	}
	return n
}
