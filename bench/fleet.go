package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wlanscale/internal/telemetry"
)

// tunnelKey is merakid's default -key (64 hex '42's).
var tunnelKey = bytes.Repeat([]byte{0x42}, 32)

// ackPoll is how often a feeder looks at its agent's queue: an ack is
// observed as the queue head advancing, so this bounds the measurement
// error of every ack time.
const ackPoll = 100 * time.Microsecond

// countConn counts the bytes an agent writes toward the daemon.
type countConn struct {
	net.Conn
	wrote *atomic.Int64
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.wrote.Add(int64(n))
	return n, err
}

// fleet is the load generator: one telemetry.Agent, and so one TCP
// connection, per feed, each fronting its feed's slice of the corpus.
type fleet struct {
	agents []*telemetry.Agent
	feeds  []*feed
	wrote  atomic.Int64 // bytes written agent→daemon
	stop   chan struct{}
	wg     sync.WaitGroup
}

// connectFleet dials one agent per feed to the daemon's tunnel port and
// returns once the daemon reports them all connected.
func connectFleet(d *daemon, feeds []*feed, wire byte) (*fleet, error) {
	fl := &fleet{feeds: feeds, stop: make(chan struct{})}
	for i := range feeds {
		a := telemetry.NewAgent(fmt.Sprintf("Q2BN-9999-%04d", i), tunnelKey)
		a.Wire = wire
		a.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return countConn{c, &fl.wrote}, nil
		}
		fl.agents = append(fl.agents, a)
		fl.wg.Add(1)
		go func() {
			defer fl.wg.Done()
			a.RunWithReconnect(d.listen, fl.stop)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		lines, err := query(d.query, "status")
		if err == nil {
			if n, err := statusField(lines, "devices"); err == nil && n == len(feeds) {
				return fl, nil
			}
		}
		if time.Now().After(deadline) {
			fl.close()
			return nil, fmt.Errorf("only some of %d agents connected: %v", len(feeds), err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close disconnects every agent and waits for its goroutine.
func (fl *fleet) close() {
	close(fl.stop)
	fl.wg.Wait()
}

// dropped is the number of reports the agents lost to queue overflow.
func (fl *fleet) dropped() int {
	n := 0
	for _, a := range fl.agents {
		n += a.Dropped()
	}
	return n
}

// drainResult is what one closed-loop drain measured.
type drainResult struct {
	elapsed time.Duration // first enqueue → last ack
	unacked int           // enqueued but still queued at the deadline
	// windowRates are the acks per second of each full sampling window.
	windowRates []float64
}

// drain is the closed loop: every agent's feeder keeps its queue at
// least depth deep until perAgent reports are in, then waits for the
// queue to empty. One goroutine per agent both enqueues and observes
// acks, so the generator never has more runnable goroutines than
// connections.
func (fl *fleet) drain(perAgent, depth int, window, limit time.Duration) drainResult {
	var acked atomic.Int64
	start := time.Now()
	deadline := start.Add(limit)
	var wg sync.WaitGroup
	unacked := make([]int, len(fl.agents))
	for i, a := range fl.agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := fl.feeds[i]
			enq, seen := 0, 0
			for {
				ql := a.QueueLen()
				if d := enq - ql - seen; d > 0 {
					acked.Add(int64(d))
					seen += d
				}
				if enq == perAgent && ql == 0 {
					return
				}
				if enq < perAgent && ql < depth {
					// Top up by a poll's worth beyond the floor, so the
					// feeder runs in bursts rather than per ack.
					n := min(depth+64-ql, perAgent-enq)
					for ; n > 0; n-- {
						a.Enqueue(f.pop())
						enq++
					}
					continue
				}
				if time.Now().After(deadline) {
					unacked[i] = ql
					return
				}
				time.Sleep(ackPoll)
			}
		}()
	}
	// The sampler wakes once per window; it is not a busy goroutine.
	quit := make(chan struct{})
	sampled := make(chan []float64, 1)
	go func() {
		t := time.NewTicker(window)
		defer t.Stop()
		var rates []float64
		last, lastT := int64(0), start
		for {
			select {
			case now := <-t.C:
				cur := acked.Load()
				rates = append(rates, float64(cur-last)/now.Sub(lastT).Seconds())
				last, lastT = cur, now
			case <-quit:
				sampled <- rates
				return
			}
		}
	}()
	wg.Wait()
	res := drainResult{elapsed: time.Since(start)}
	close(quit)
	res.windowRates = <-sampled
	for _, u := range unacked {
		res.unacked += u
	}
	return res
}

// pacedResult is what one open-loop run measured.
type pacedResult struct {
	elapsed   time.Duration // first due instant → last ack
	latencyMS []float64     // one per acked report, from its due instant
	lateMax   time.Duration // how late the generator itself ran, at worst
	unacked   int
}

// paced is the open loop: every agent sends perAgent reports on a fixed
// schedule of one per interval, whether or not the daemon keeps up, and
// times each from the instant it was due to the instant its ack is
// observed.
func (fl *fleet) paced(perAgent int, interval, limit time.Duration) pacedResult {
	start := time.Now().Add(5 * time.Millisecond)
	deadline := start.Add(time.Duration(perAgent)*interval + limit)
	pacers := make([]*pacer, len(fl.agents))
	var wg sync.WaitGroup
	for i, a := range fl.agents {
		// Stagger the agents across one interval so arrivals are evenly
		// spread rather than in bursts of len(agents).
		p := &pacer{
			start:    start.Add(interval * time.Duration(i) / time.Duration(len(fl.agents))),
			interval: interval, total: perAgent,
			latencyMS: make([]float64, 0, perAgent),
		}
		pacers[i] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := fl.feeds[i]
			for p.acked < perAgent {
				now := time.Now()
				for due := p.dueBy(now); p.sent < due; {
					a.Enqueue(f.pop())
					p.noteSent(now)
				}
				now = time.Now()
				p.noteAcked(p.sent-a.QueueLen(), now)
				if now.After(deadline) {
					return
				}
				wait := ackPoll
				if p.sent == p.acked && p.sent < perAgent {
					// Nothing in flight: sleep until the next report is due.
					wait = p.due(p.sent).Sub(now)
				}
				time.Sleep(wait)
			}
		}()
	}
	wg.Wait()
	res := pacedResult{elapsed: time.Since(start)}
	for _, p := range pacers {
		res.latencyMS = append(res.latencyMS, p.latencyMS...)
		res.unacked += perAgent - p.acked
		if p.lateMax > res.lateMax {
			res.lateMax = p.lateMax
		}
	}
	return res
}
