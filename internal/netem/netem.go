// Package netem is the framework's network emulator: the stand-in for
// Mininet in the paper's stack (see ARCHITECTURE.md). It moves opaque
// control-plane messages between nodes over point-to-point links with
// configurable latency and loss, supports dynamic link failure/restore
// ("dynamically changing the topology", paper §2), and counts traffic
// for the analysis tools.
//
// Delivery semantics: Send is the one way onto a link, and it is
// reliable and in-order per direction, like the TCP connections BGP
// rides on — messages are never reordered and are lost only when the
// link goes down while they are in flight. Every frame kind takes it:
// BGP, OpenFlow and data-plane probes. On a lossy link, Send models TCP
// recovery: each lost transmission attempt delays delivery by a
// doubling retransmission timeout, and after maxRetransmits consecutive
// losses the transport gives up and the message is dropped (so Loss 1.0
// delivers nothing and sessions never establish).
//
// A frame is borrowed, as an io.Writer's buffer is: Send copies it into
// the buffer of the delivery that carries it, so the sender may reuse
// its own storage the moment Send returns, and the receiving handler
// may read what it is handed only until it returns — the delivery, and
// its buffer, then carry the next frame. A receiver that keeps a frame
// past its handler keeps a copy.
//
// All timing runs on a sim.Clock, so the emulator works both in virtual
// and in wall-clock time.
package netem

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// ErrLinkDown is returned by Send when the link is administratively or
// operationally down.
var ErrLinkDown = errors.New("netem: link is down")

// Network owns nodes and links and carries the shared clock.
type Network struct {
	clock sim.Clock
	rng   *rand.Rand
	nodes map[string]*Node
	links []*Link

	// linkSeed derives a private random stream per link (SeedLinks).
	linkSeed int64
	seeded   bool

	// idle chains the deliveries that have fired, each with the buffer
	// it carried its frame in, for the next send to reuse; with the
	// clock recycling its side too (sim.Clock.Post), a frame in flight
	// allocates nothing. The chain peaks at the most frames in flight
	// at once.
	idle *delivery

	// Delivered and Dropped count messages network-wide.
	Delivered, Dropped uint64
	// BytesDelivered counts payload bytes network-wide.
	BytesDelivered uint64
}

// NewNetwork returns an empty network on the given clock. rng is used
// for loss decisions; it may be nil if no link is lossy or the network
// is seeded (SeedLinks).
func NewNetwork(clock sim.Clock, rng *rand.Rand) *Network {
	return &Network{
		clock: clock,
		rng:   rng,
		nodes: make(map[string]*Node),
	}
}

// SeedLinks gives every link created after this call a private random
// source derived from seed and the link's creation index, instead of
// the shared network source. Per-link streams keep the loss draws on
// one link independent of activity on every other link (and
// of protocol randomness like MRAI jitter), so a lossy run is
// byte-reproducible from the seed no matter how the experiment layers
// interleave their own draws.
func (n *Network) SeedLinks(seed int64) {
	n.linkSeed = seed
	n.seeded = true
}

// Reseed re-derives the private stream of every seeded link, and of
// every link created later, from seed: each existing stream at the
// position it has reached, so the draws made so far stay made. It is
// the links' half of forking a run (sim.Kernel.Reseed).
func (n *Network) Reseed(seed int64) {
	n.linkSeed = seed
	for i, l := range n.links {
		if l.seeded {
			draws := l.src.Draws()
			l.src.Seed(linkSeed(seed, i))
			l.src.FastForward(draws)
		}
	}
}

// linkSeed derives the seed of the i-th link's private stream: the
// creation index mixed into the network's seed with a splitmix64-style
// odd constant, so adjacent links get well-separated streams.
func linkSeed(seed int64, i int) int64 {
	return seed ^ int64(i+1)*-0x61c8864680b583eb
}

// Clock returns the network's clock.
func (n *Network) Clock() sim.Clock { return n.clock }

// AddNode creates a node with a unique name.
func (n *Network) AddNode(name string) (*Node, error) {
	if _, ok := n.nodes[name]; ok {
		return nil, fmt.Errorf("netem: duplicate node %q", name)
	}
	node := &Node{name: name, net: n}
	n.nodes[name] = node
	return node, nil
}

// Node returns the named node, if present.
func (n *Network) Node(name string) (*Node, bool) {
	nd, ok := n.nodes[name]
	return nd, ok
}

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// LinkConfig sets the transmission characteristics of one link.
type LinkConfig struct {
	// Delay is the one-way propagation delay (DefaultDelay if zero).
	Delay time.Duration
	// Loss is the probability in [0, 1] that one transmission attempt
	// of a Send is lost (see Send for the retransmission model).
	Loss float64
}

// DefaultDelay is applied when LinkConfig.Delay is zero.
const DefaultDelay = 1 * time.Millisecond

// Connect creates a bidirectional link between a and b.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) (*Link, error) {
	if a == nil || b == nil {
		return nil, errors.New("netem: Connect with nil node")
	}
	if a == b {
		return nil, fmt.Errorf("netem: cannot connect %q to itself", a.name)
	}
	if a.net != n || b.net != n {
		return nil, errors.New("netem: node belongs to a different network")
	}
	if cfg.Delay == 0 {
		cfg.Delay = DefaultDelay
	}
	if cfg.Delay < 0 || !(cfg.Loss >= 0 && cfg.Loss <= 1) {
		return nil, fmt.Errorf("netem: invalid link config %+v", cfg)
	}
	if cfg.Loss > 0 && n.rng == nil && !n.seeded {
		return nil, errors.New("netem: loss needs a network random source")
	}
	l := &Link{net: n, cfg: cfg, up: true, seeded: n.seeded, downNS: sim.TimeNone}
	if n.seeded {
		// The source is draw-counted so a fork can re-seed it where it
		// stands (Reseed), and it builds its generator on the first
		// draw: a lossless link holds only (seed, draws).
		l.src.Seed(linkSeed(n.linkSeed, len(n.links)))
	}
	l.a = Endpoint{node: a, link: l, peer: &l.b}
	l.b = Endpoint{node: b, link: l, peer: &l.a}
	a.endpoints = append(a.endpoints, &l.a)
	b.endpoints = append(b.endpoints, &l.b)
	n.links = append(n.links, l)
	return l, nil
}

// Node is a network device: one per AS in the paper's model ("every AS
// is emulated by a single network device").
type Node struct {
	name      string
	net       *Network
	endpoints []*Endpoint
	handler   Handler
}

// Handler receives the frames that arrive at a node: data holds what
// the peer of from passed to Send. It is borrowed: the handler, and
// whatever it hands the bytes on to, may read it only until the
// handler returns, and copies what it keeps (see the package comment).
type Handler func(from *Endpoint, data []byte)

// Name returns the node's unique name.
func (nd *Node) Name() string { return nd.name }

// Endpoints returns the node's link endpoints in attachment order.
func (nd *Node) Endpoints() []*Endpoint { return nd.endpoints }

// OnMessage installs the node's receive handler. Handlers run on the
// clock's executor; installing a handler replaces the previous one.
func (nd *Node) OnMessage(h Handler) { nd.handler = h }

// EndpointTo returns this node's endpoint on a link to the named peer
// node, if one exists (the first match when parallel links exist).
func (nd *Node) EndpointTo(peer string) (*Endpoint, bool) {
	for _, ep := range nd.endpoints {
		if ep.peer.node.name == peer {
			return ep, true
		}
	}
	return nil, false
}

// Link is a bidirectional point-to-point connection. It holds its two
// endpoints and its random stream's position, so a link is one object
// until its first loss draw builds the *rand.Rand over the stream.
type Link struct {
	net  *Network
	a, b Endpoint
	cfg  LinkConfig
	// seeded links draw from their private stream src, through rng once
	// the first draw has built it; others (created before SeedLinks)
	// draw from the network's shared source.
	seeded bool
	src    sim.CountingSource
	rng    *rand.Rand
	up     bool
	epoch  uint64 // incremented on every down transition; kills in-flight traffic
	// downNS is when the link last went down, in nanoseconds since
	// sim.Epoch: a frame SendAt backdates to then or earlier was on the
	// wire when it happened.
	downNS  int64
	watcher Watcher
	tag     any

	// Stats, per link.
	Delivered, Dropped uint64
	// Retransmits counts reliable-send transmission attempts lost to
	// the link's loss rate and recovered by the retransmission model.
	Retransmits uint64
}

// rand returns the link's random source: its private per-link stream
// when the network was seeded, the shared network source otherwise.
func (l *Link) rand() *rand.Rand {
	if !l.seeded {
		return l.net.rng
	}
	if l.rng == nil {
		l.rng = rand.New(&l.src)
	}
	return l.rng
}

// Endpoints returns the two endpoints of the link.
func (l *Link) Endpoints() (*Endpoint, *Endpoint) { return &l.a, &l.b }

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Up reports the link's operational state.
func (l *Link) Up() bool { return l.up }

// SetUp changes the link state. Taking the link down invalidates all
// in-flight messages (they are counted as dropped on delivery time).
// The watcher, if any, is not called here: the change is posted to the
// clock as a zero-delay event, so protocol code observes it as an event
// of its own.
func (l *Link) SetUp(up bool) {
	if l.up == up {
		return
	}
	l.up = up
	if !up {
		l.epoch++
		l.downNS = sim.TimeToNS(l.net.clock.Now())
	}
	if l.watcher == nil {
		return
	}
	if up {
		l.net.clock.Post(0, (*linkUp)(l))
	} else {
		l.net.clock.Post(0, (*linkDown)(l))
	}
}

// Watcher is told of a link's up/down transitions (see OnStateChange).
type Watcher interface {
	StateChanged(up bool)
}

// OnStateChange installs the link's watcher; installing one replaces
// the previous one.
func (l *Link) OnStateChange(w Watcher) { l.watcher = w }

// linkUp and linkDown are a link's state change as posted work: a
// pointer to the link, so posting one allocates nothing.
type (
	linkUp   Link
	linkDown Link
)

func (u *linkUp) Fire()   { u.watcher.StateChanged(true) }
func (d *linkDown) Fire() { d.watcher.StateChanged(false) }

// SetTag attaches v to the link: whatever its user keeps per link, so
// a handler reaches it from the receiving endpoint (Endpoint.Link) with
// no lookup of its own. Nothing in this package reads it.
func (l *Link) SetTag(v any) { l.tag = v }

// Tag returns the value SetTag attached, nil if none.
func (l *Link) Tag() any { return l.tag }

// String names the link after its endpoints.
func (l *Link) String() string {
	return fmt.Sprintf("%s<->%s", l.a.node.name, l.b.node.name)
}

// Endpoint is one side of a link, owned by a node.
type Endpoint struct {
	node *Node
	link *Link
	peer *Endpoint
	// lastArrival keeps delivery in order: a frame never lands before
	// the one sent ahead of it in this direction.
	lastArrival time.Time
}

// Node returns the owning node.
func (e *Endpoint) Node() *Node { return e.node }

// Link returns the underlying link.
func (e *Endpoint) Link() *Link { return e.link }

// Peer returns the endpoint on the other side.
func (e *Endpoint) Peer() *Endpoint { return e.peer }

// initialRTO is the first retransmission timeout of the reliable-send
// loss model (the classic TCP minimum RTO), doubling per lost attempt.
const initialRTO = 200 * time.Millisecond

// maxRetransmits bounds consecutive lost transmission attempts of one
// reliable send. Once exceeded the message is dropped outright — the
// emulated TCP gives up — so a Loss of 1.0 delivers nothing at all
// instead of looping forever.
const maxRetransmits = 6

// lossPenalty draws the reliable-send loss model on one message: each
// lost transmission attempt (probability cfg.Loss, from the link's
// random stream) adds a doubling retransmission timeout to the
// delivery. It returns the accumulated penalty and whether the sender
// gave up after maxRetransmits consecutive losses.
func (l *Link) lossPenalty() (time.Duration, bool) {
	if l.cfg.Loss <= 0 {
		return 0, false
	}
	rng := l.rand()
	var penalty time.Duration
	rto := initialRTO
	for attempt := 0; rng.Float64() < l.cfg.Loss; attempt++ {
		if attempt == maxRetransmits {
			return 0, true
		}
		l.Retransmits++
		penalty += rto
		rto *= 2
	}
	return penalty, false
}

// delivery is one frame in flight: what its send fixed when the frame
// left, the frame itself in the delivery's own buffer, and the posted
// work that completes it at the far end. Nothing but Send and SendAt
// schedule a delivery.
type delivery struct {
	dst   *Endpoint
	epoch uint64 // of the link when the frame left
	// data is the frame, copied in by the send; an idle delivery keeps
	// the buffer for the next frame it carries.
	data []byte
	next *delivery // while idle
}

// Fire lands the frame: dropped if the link went down at any point
// since it left, otherwise counted and handed to the receiving node.
// The delivery goes back to the network only once the handler has
// returned, so a handler that answers on the spot gets another one and
// the frame it is reading stays as it was.
func (d *delivery) Fire() {
	l := d.dst.link
	if !l.up || l.epoch != d.epoch {
		l.Dropped++
		l.net.Dropped++
	} else {
		l.Delivered++
		l.net.Delivered++
		l.net.BytesDelivered += uint64(len(d.data))
		if h := d.dst.node.handler; h != nil {
			h(d.dst, d.data)
		}
	}
	d.dst, d.next = nil, l.net.idle
	l.net.idle = d
}

// Send transmits data reliably and in order to the peer node, which
// receives it via its OnMessage handler after the link delay. It fails
// immediately if the link is down. If the link goes down while the
// message is in flight, the message is dropped (like a TCP connection
// reset mid-transfer). On a lossy link delivery is delayed by the
// retransmission model (lossPenalty) — and abandoned entirely once the
// emulated transport gives up, so sessions across a fully lossy link
// can never establish.
//
// data is copied, as an io.Writer copies: the caller may overwrite it
// once Send returns, and the receiving handler reads the delivery's
// copy.
func (e *Endpoint) Send(data []byte) error {
	l, n := e.link, e.link.net
	if !l.up {
		return ErrLinkDown
	}
	penalty, gaveUp := l.lossPenalty()
	if gaveUp {
		l.Dropped++
		n.Dropped++
		return nil
	}
	now := n.clock.Now()
	arrival := now.Add(l.cfg.Delay + penalty)
	if arrival.Before(e.lastArrival) {
		arrival = e.lastArrival
	}
	e.lastArrival = arrival
	e.post(data, l.epoch, arrival.Sub(now))
	return nil
}

// post puts a copy of data in flight to the peer, landing d from now
// unless the link's epoch has moved past epoch by then. The frame rides
// the delivery an earlier one handed back, if any, in its buffer.
func (e *Endpoint) post(data []byte, epoch uint64, d time.Duration) {
	n := e.link.net
	dl := n.idle
	if dl != nil {
		n.idle = dl.next
	} else {
		dl = new(delivery)
	}
	dl.dst, dl.epoch, dl.next = e.peer, epoch, nil
	dl.data = append(dl.data[:0], data...)
	n.clock.Post(d, dl)
}

// SendAt puts data on a lossless link as a frame that left this
// endpoint at sent, an instant no later than now and less than one
// link delay ago: it lands at sent plus the delay, in order with the
// frames sent around it, or is dropped then if the link went down at
// or after sent, as a frame sent at that instant would have been. It
// is how a sender that kept a periodic frame off the wire by
// arithmetic (see Credit) materializes the copies that were still in
// flight when the schedule ended. No loss is drawn; a lossy link
// refuses. data is copied, as Send copies it.
func (e *Endpoint) SendAt(data []byte, sent time.Time) error {
	l, n := e.link, e.link.net
	if l.cfg.Loss > 0 {
		return errors.New("netem: SendAt on a lossy link")
	}
	now := n.clock.Now()
	arrival := sent.Add(l.cfg.Delay)
	if sent.After(now) || !arrival.After(now) {
		return fmt.Errorf("netem: SendAt %v is not in flight at %v", sent, now)
	}
	epoch := l.epoch
	if !l.up || l.downNS >= sim.TimeToNS(sent) {
		epoch-- // any stale epoch drops it on arrival
	}
	if arrival.After(e.lastArrival) {
		e.lastArrival = arrival
	}
	e.post(data, epoch, arrival.Sub(now))
	return nil
}

// Credit counts frames that left this endpoint and landed at its peer
// without passing through Send — frames of bytes bytes in all — as
// delivered, on the link and network-wide. A sender that keeps a
// periodic frame off a lossless link by arithmetic credits the copies
// that landed once their schedule ends, so the counters read as if
// each had been sent.
func (e *Endpoint) Credit(frames, bytes uint64) {
	e.link.Delivered += frames
	e.link.net.Delivered += frames
	e.link.net.BytesDelivered += bytes
}

// String names the endpoint by its node and peer.
func (e *Endpoint) String() string {
	return fmt.Sprintf("%s->%s", e.node.name, e.peer.node.name)
}
