package main

// The serving stack under test: the program's real HTTP handlers
// (server.New(cfg).Handler()) behind loopback listeners in this process.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/server"
	"wlq/internal/wal"
	"wlq/internal/wlog"
)

// clusterWorkers is the number of worker-mode servers behind the
// cluster-fanout coordinator.
const clusterWorkers = 2

// node is one server behind a loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	addr string // host:port the listener is bound to
	done chan error
}

// startNode registers l on a new server built from cfg and starts serving
// it on 127.0.0.1. It returns once the listener accepts connections.
func startNode(cfg server.Config, l *wlog.Log) (*node, error) {
	s := server.New(cfg)
	if err := s.AddLog(logName, "perfbench", l); err != nil {
		return nil, fmt.Errorf("add log: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{
		srv:  s,
		hs:   &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// stop drains the listener, waits for the serve loop to return and closes
// the server (syncing and closing its WAL, if it has one).
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := n.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// fleet is the set of nodes one workload runs against; front is the node
// clients talk to.
type fleet struct {
	front  *node
	nodes  []*node
	client *http.Client
}

func (f *fleet) url(path string) string { return "http://" + f.front.addr + path }

func (f *fleet) stop() error {
	var first error
	// Front (coordinator) first, so no fan-out is in flight when the
	// workers go away.
	for i := len(f.nodes) - 1; i >= 0; i-- {
		if err := f.nodes[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	f.client.CloseIdleConnections()
	return first
}

// newClient returns the load generator's HTTP client: keep-alive
// connections, enough idle slots for every closed-loop client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// ingestConfig is the single-node configuration with durable live
// ingestion: every record fsynced before it is acknowledged (-fsync always,
// the program's default policy).
func ingestConfig(walDir string) server.Config {
	return server.Config{Ingest: true, WALDir: walDir, FsyncPolicy: wal.PolicyAlways}
}

// startSingle starts one node serving l; with walDir non-empty the node
// ingests durably into it.
func startSingle(l *wlog.Log, walDir string) (*fleet, error) {
	cfg := server.Config{}
	if walDir != "" {
		cfg = ingestConfig(walDir)
	}
	n, err := startNode(cfg, l)
	if err != nil {
		return nil, err
	}
	return &fleet{front: n, nodes: []*node{n}, client: newClient()}, nil
}

// startCluster starts clusterWorkers worker-mode nodes and a coordinator
// over them, all serving l. Workers are named by fixed logical URLs that
// the coordinator's transport resolves to the real listeners, so ring
// placement — and with it each worker's share of the log — depends on the
// worker count only, never on the ports the listeners happened to get.
func startCluster(l *wlog.Log) (*fleet, error) {
	f := &fleet{client: newClient()}
	resolve := make(map[string]string, clusterWorkers)
	var urls []string
	for i := 0; i < clusterWorkers; i++ {
		n, err := startNode(server.Config{WorkerMode: true}, l)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		host := fmt.Sprintf("worker-%d.perfbench", i)
		resolve[host+":80"] = n.addr
		urls = append(urls, "http://"+host)
	}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	transport := &http.Transport{
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := resolve[addr]
			if !ok {
				return nil, fmt.Errorf("unknown worker address %q", addr)
			}
			return dialer.DialContext(ctx, network, real)
		},
	}
	coord, err := startNode(server.Config{
		Cluster:       &cluster.Config{Workers: urls, Transport: transport},
		ProbeInterval: -1,
	}, l)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.front = coord
	f.nodes = append(f.nodes, coord)
	return f, nil
}

// metricsDoc holds the fields of GET /metrics the benchmark reads.
type metricsDoc struct {
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	QueriesShed    uint64 `json:"queries_shed"`
	Ingest         *struct {
		WALAppends         uint64 `json:"wal_appends"`
		WALBytes           uint64 `json:"wal_bytes"`
		WALFsyncs          uint64 `json:"wal_fsyncs"`
		CacheInvalidations uint64 `json:"cache_invalidations"`
	} `json:"ingest"`
}

func (f *fleet) metrics() (metricsDoc, error) {
	var doc metricsDoc
	resp, err := f.client.Get(f.url("/metrics"))
	if err != nil {
		return doc, fmt.Errorf("get metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("get metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("decode metrics: %w", err)
	}
	return doc, nil
}

// freshDir empties (or creates) a scratch directory.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// cpuModel names the processor, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
