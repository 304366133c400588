// Command apstat queries a running merakid over its line-based query
// port and prints the response. The commands are listed in
// docs/COMMANDS.md. It exits 1, with the reason on stderr, when the
// daemon cannot be reached, the reply is cut short before its
// terminator, or the daemon answers an ERR line.
//
// Usage:
//
//	apstat [-addr 127.0.0.1:7772] status
//	apstat top-apps 20
//	apstat util
//	apstat save /tmp/snapshot.gob
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wlanscale/internal/queryproto"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7772", "merakid query address")
	timeout := flag.Duration("timeout", 10*time.Second, "dial and I/O deadline")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: apstat [-addr host:port] COMMAND [ARGS]")
		os.Exit(2)
	}
	if err := run(os.Stdout, *addr, strings.Join(flag.Args(), " "), *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "apstat: %v\n", err)
		os.Exit(1)
	}
}

// run prints the reply to command on out. A stalled merakid costs one
// deadline, not a hung CLI; a reply cut short by a dying one, or an ERR
// answer, is an error.
func run(out io.Writer, addr, command string, timeout time.Duration) error {
	lines, err := queryproto.Do(addr, timeout, command)
	if err != nil {
		return err
	}
	if queryproto.IsErr(lines) {
		return errors.New(lines[0])
	}
	for _, ln := range lines {
		fmt.Fprintln(out, ln)
	}
	return nil
}
