// Package queryproto owns the framing of merakid's line-oriented query
// protocol — the one client (Do) and the one server loop (Serve) every
// daemon, tool and test in this repo speaks it through.
//
// The rules, all of them (DESIGN.md §14):
//
//   - A request is one line of space-separated fields: a command name
//     and its operands. Blank request lines are skipped.
//   - A payload-carrying command (Command.Payload, today only "absorb")
//     is followed by payload lines ended by one blank line.
//   - A reply is zero or more non-empty lines ended by one blank line.
//     A failed command replies with a single line starting "ERR ".
//   - A connection that closes before the blank terminator — request
//     payload or reply — was truncated: the lines read so far are
//     discarded, never acted on (ErrTruncated client-side, "ERR
//     truncated payload" server-side).
//   - No line may exceed MaxLine bytes and no payload MaxPayload bytes.
//   - "quit" ends the session without a reply.
package queryproto

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"
)

const (
	// MaxLine caps one protocol line. Snapshot transport chunks its
	// base64 at 4096 characters; the longest real lines are migration
	// ID lists.
	MaxLine = 1 << 20
	// MaxPayload caps the bytes of one request payload (an absorb
	// slice), so an unauthenticated peer cannot grow the daemon without
	// bound. The largest slice anything in the repo pushes is 1.4 MiB
	// (the benchmark's cluster-ops rebalance; the whole store of
	// TestSnapshotLinesStayChunked encodes to 1.2 MiB), so 64 MiB leaves
	// 45× headroom for real fleets.
	MaxPayload = 64 << 20
)

// ErrTruncated marks a reply whose connection closed before the blank
// terminator arrived: the lines read so far may be a prefix of the real
// answer, so they are thrown away. (A snapshot missing its tail would
// otherwise fold into a merged digest as if the shard held less data.)
var ErrTruncated = errors.New("queryproto: truncated response (connection closed before terminator)")

func newScanner(conn net.Conn) *bufio.Scanner {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), MaxLine)
	return sc
}

// Do runs one exchange against the query port at addr: send header
// (and, when payload is non-nil, the payload lines and their blank
// terminator), then "quit", and return the reply lines. timeout bounds
// the whole exchange, dial included. An "ERR" reply is returned as
// lines, not as an error: only transport failures and truncation are
// errors.
func Do(addr string, timeout time.Duration, header string, payload ...string) ([]string, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	lines, err := exchange(conn, header, payload)
	if errors.Is(err, ErrTruncated) {
		err = fmt.Errorf("%w from %s", err, addr)
	}
	return lines, err
}

// exchange is Do on an established connection.
func exchange(conn net.Conn, header string, payload []string) ([]string, error) {
	w := bufio.NewWriter(conn)
	fmt.Fprintln(w, header)
	if payload != nil {
		for _, ln := range payload {
			fmt.Fprintln(w, ln)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "quit")
	if err := w.Flush(); err != nil {
		return nil, err
	}
	var lines []string
	sc := newScanner(conn)
	for sc.Scan() {
		ln := sc.Text()
		if ln == "" {
			return lines, nil
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w after %d lines", ErrTruncated, len(lines))
}

// IsErr reports whether a reply is a command failure: its first line
// starts with "ERR".
func IsErr(lines []string) bool {
	return len(lines) > 0 && strings.HasPrefix(lines[0], "ERR")
}

// Command is one row of a server's command table.
type Command struct {
	Name string
	// Usage names the operands, e.g. "TOKEN IDS" or "[METRIC [N]]". It
	// is rendered into docs/COMMANDS.md and into the arity error.
	Usage string
	// MinArgs is how many operands the command requires; Serve answers
	// "ERR <name> needs <usage>" to a shorter line without calling Run.
	MinArgs int
	// Payload marks a command whose request line is followed by
	// blank-terminated payload lines.
	Payload bool
	// Help is the one-paragraph description rendered into the docs.
	Help string
	// Run executes the command: args are the operands (at least
	// MinArgs), payload the collected payload lines. It writes reply
	// lines to w — flushing itself only to stream progress — and must
	// not write blank lines. A returned error becomes the "ERR" line.
	Run func(w *bufio.Writer, args, payload []string) error
}

// Quit is the session-ending command Serve handles itself; tables end
// with it so generated docs list it.
var Quit = Command{Name: "quit", Help: "End the session; the daemon closes the connection without a reply."}

// Serve runs the server side of one connection against table until the
// peer quits, disconnects, or a payload arrives truncated. It closes
// conn.
func Serve(conn net.Conn, table []Command) {
	serve(conn, table, MaxPayload)
}

func serve(conn net.Conn, table []Command, maxPayload int) {
	defer conn.Close()
	sc := newScanner(conn)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		name, args := fields[0], fields[1:]
		if name == Quit.Name {
			break
		}
		err := dispatch(w, sc, table, name, args, maxPayload)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
		}
		fmt.Fprintln(w)
		if w.Flush() != nil || errors.Is(err, errTruncatedPayload) {
			return
		}
	}
	w.Flush()
}

var errTruncatedPayload = errors.New("truncated payload")

func dispatch(w *bufio.Writer, sc *bufio.Scanner, table []Command, name string, args []string, maxPayload int) error {
	var cmd *Command
	for i := range table {
		if table[i].Name == name {
			cmd = &table[i]
			break
		}
	}
	if cmd == nil {
		return fmt.Errorf("unknown command %q", name)
	}
	var payload []string
	if cmd.Payload {
		// The payload is consumed before any other check so a refused
		// command leaves the session in sync.
		var err error
		if payload, err = readPayload(sc, maxPayload); err != nil {
			return err
		}
	}
	if len(args) < cmd.MinArgs {
		return fmt.Errorf("%s needs %s", cmd.Name, cmd.Usage)
	}
	return cmd.Run(w, args, payload)
}

// readPayload collects payload lines up to the blank terminator. A
// payload over the cap is read to its end but not kept, so the refusal
// costs no memory and the session stays usable; a payload whose
// terminator never arrives (disconnect, or a line over MaxLine stopping
// the scanner) is refused as truncated.
func readPayload(sc *bufio.Scanner, max int) ([]string, error) {
	var payload []string
	size := 0
	for sc.Scan() {
		ln := sc.Text()
		if ln == "" {
			if size > max {
				return nil, fmt.Errorf("payload exceeds %d bytes", max)
			}
			return payload, nil
		}
		if size += len(ln) + 1; size > max {
			payload = nil
			continue
		}
		payload = append(payload, ln)
	}
	return nil, errTruncatedPayload
}
