package apps

import (
	"strings"
)

// FlowMeta is the metadata the AP slow path extracts for one new flow:
// the transport and server port from the SYN, the preceding DNS lookup,
// and either the TLS ClientHello or the HTTP request head, whichever the
// flow carries.
type FlowMeta struct {
	// Proto is the transport protocol.
	Proto Proto
	// ServerPort is the destination port of the flow.
	ServerPort uint16
	// DNSQuery is the raw DNS query message observed immediately before
	// the flow, if any.
	DNSQuery []byte
	// ClientHello is the raw TLS ClientHello, if the flow is TLS.
	ClientHello []byte
	// HTTPHead is the raw HTTP request head, if the flow is plain HTTP.
	HTTPHead []byte
}

// Result is a classification outcome.
type Result struct {
	// App is the application name (a Table 5 row).
	App string
	// Category is the application's category.
	Category Category
	// Host is the hostname that drove the decision, if any.
	Host string
	// UserAgent is the HTTP User-Agent, if the flow carried one
	// (forwarded to OS inference).
	UserAgent string
	// Rule describes which rule matched, for diagnostics.
	Rule string
}

type portKey struct {
	proto Proto
	port  uint16
}

// Classifier is the compiled rule engine. It is safe for concurrent use
// after construction.
type Classifier struct {
	hostRules map[string]AppInfo
	portRules map[portKey]AppInfo
	byName    map[string]AppInfo
	// PortFirst inverts the evaluation order so port rules run before
	// hostname rules. The paper's pipeline is hostname-first; this knob
	// exists for the rule-order ablation bench.
	PortFirst bool
	ruleCount int
}

// NewClassifier compiles the catalog into a classifier.
func NewClassifier() *Classifier {
	c := &Classifier{
		hostRules: make(map[string]AppInfo),
		portRules: make(map[portKey]AppInfo),
		byName:    make(map[string]AppInfo),
	}
	for _, app := range Catalog() {
		c.byName[app.Name] = app
		for _, h := range app.Hosts {
			c.hostRules[strings.ToLower(h)] = app
			c.ruleCount++
		}
		for _, p := range app.Ports {
			c.portRules[portKey{app.Proto, p}] = app
			c.ruleCount++
		}
	}
	// Fallback rules (misc web, misc secure web, content-type video and
	// audio, non-web TCP, UDP, encrypted TCP) count toward the rule set.
	c.ruleCount += 7
	return c
}

// RuleCount returns the number of compiled rules — about 200, matching
// the paper's "about 200 application identification rules".
func (c *Classifier) RuleCount() int { return c.ruleCount }

// lookupHost finds the most specific (longest-suffix) host rule for a
// hostname: it tries the full name, then strips leading labels.
func (c *Classifier) lookupHost(host string) (AppInfo, bool) {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	for host != "" {
		if app, ok := c.hostRules[host]; ok {
			return app, true
		}
		dot := strings.IndexByte(host, '.')
		if dot < 0 {
			break
		}
		host = host[dot+1:]
	}
	return AppInfo{}, false
}

// Classify identifies the application behind one flow. It never returns
// an empty result: flows that match no specific rule land in the misc
// buckets, exactly as the paper's Table 5 reports them.
func (c *Classifier) Classify(m FlowMeta) Result {
	// Extract metadata from the artifacts (the real work of the slow
	// path).
	var host, ua, contentType string
	isTLS := false
	isHTTP := false
	if len(m.ClientHello) > 0 {
		if sni, err := ParseClientHelloSNI(m.ClientHello); err == nil {
			isTLS = true
			host = sni
		}
	}
	if host == "" && len(m.HTTPHead) > 0 {
		if req, err := ParseHTTPRequest(m.HTTPHead); err == nil {
			isHTTP = true
			host = req.Host
			ua = req.UserAgent
			contentType = req.ContentType
		}
	}
	if host == "" && len(m.DNSQuery) > 0 {
		if name, err := ParseDNSQuery(m.DNSQuery); err == nil {
			host = name
		}
	}

	mk := func(app AppInfo, rule string) Result {
		return Result{App: app.Name, Category: app.Category, Host: host, UserAgent: ua, Rule: rule}
	}

	tryHost := func() (Result, bool) {
		if host == "" {
			return Result{}, false
		}
		if app, ok := c.lookupHost(host); ok {
			return mk(app, "host:"+host), true
		}
		return Result{}, false
	}
	tryPort := func() (Result, bool) {
		if app, ok := c.portRules[portKey{m.Proto, m.ServerPort}]; ok {
			return mk(app, "port"), true
		}
		return Result{}, false
	}

	first, second := tryHost, tryPort
	if c.PortFirst {
		first, second = tryPort, tryHost
	}
	if r, ok := first(); ok {
		return r
	}
	if r, ok := second(); ok {
		return r
	}

	// Fallback buckets.
	ctLower := strings.ToLower(contentType)
	switch {
	case strings.HasPrefix(ctLower, "video/"):
		return mk(c.byName[MiscVideo], "content-type:video")
	case strings.HasPrefix(ctLower, "audio/"):
		return mk(c.byName[MiscAudio], "content-type:audio")
	case isHTTP || (m.Proto == TCP && m.ServerPort == 80):
		return mk(c.byName[MiscWeb], "fallback:http")
	case isTLS && m.ServerPort == 443:
		return mk(c.byName[MiscSecureWeb], "fallback:https")
	case isTLS:
		return mk(c.byName[EncryptedTCP], "fallback:tls-nonstd")
	case m.Proto == TCP && m.ServerPort == 443:
		return mk(c.byName[MiscSecureWeb], "fallback:443")
	case m.Proto == TCP:
		return mk(c.byName[NonWebTCP], "fallback:tcp")
	default:
		return mk(c.byName[MiscUDP], "fallback:udp")
	}
}
