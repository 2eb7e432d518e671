package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"
)

// genSpec is the load generator process's input. The generator rebuilds
// the schedule from the seed and the snapshot itself.
type genSpec struct {
	Addr     string
	Snapshot string
	Seed     int64
	Phase    phase
	// Conns is the number of connections, each driven by one worker.
	Conns int
	// Sample keeps the response body of every Sample-th request for the
	// correctness check; 0 keeps none.
	Sample int
	Out    string
}

// genResult is what the generator measured, one entry per scheduled
// operation, times in nanoseconds from T0.
type genResult struct {
	// T0 is the schedule origin as Unix nanoseconds, for aligning with
	// events observed by other processes.
	T0 int64
	// Lead is the unmeasured lead-in: operations due before it warm up.
	Lead   int64
	Due    []int64
	Sent   []int64
	End    []int64
	OK     []bool
	LSN    []int64 // the acknowledged LSN of an ingest, else 0
	Bodies map[int]string
	Errors []string // the first few failures
}

// maxErrors bounds the failure messages a result keeps.
const maxErrors = 8

// runGen is the generator process: it sends the phase's schedule open
// loop, timing each request from when it was due, and writes the result
// file.
func runGen(spec genSpec) error {
	// Fewer collections in the generator keep its own pauses out of the
	// latencies it records; its heap stays small either way.
	debug.SetGCPercent(800)
	m, err := loadMaterial(spec.Snapshot)
	if err != nil {
		return err
	}
	ops := schedule(m, spec.Seed, spec.Phase)
	res := openLoop("http://"+spec.Addr, spec.Phase.Name, ops, spec.Conns, spec.Sample)
	res.Lead = int64(spec.Phase.Lead * float64(time.Second))
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(spec.Out, data, 0o644)
}

// openLoop dispatches ops at their due times onto conns workers, each with
// one keep-alive connection. A request waiting for a free connection is
// still timed from when it was due.
func openLoop(base, tag string, ops []op, conns, sample int) *genResult {
	n := len(ops)
	res := &genResult{
		Due: make([]int64, n), Sent: make([]int64, n), End: make([]int64, n),
		OK: make([]bool, n), LSN: make([]int64, n), Bodies: map[int]string{},
	}
	var mu sync.Mutex // guards Bodies and Errors
	// The queue holds every op, so the dispatcher never blocks on slow
	// workers: lateness then measures the generator, not the server.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	start := time.Now().Add(50 * time.Millisecond)
	res.T0 = start.UnixNano()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Timeout:   60 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			}
			defer client.CloseIdleConnections()
			for i := range queue {
				body, lsn, err := send(client, base, fmt.Sprintf("%s-%d", tag, i), ops[i].Req)
				res.End[i] = int64(time.Since(start))
				res.OK[i] = err == nil
				res.LSN[i] = lsn
				if err != nil || (sample > 0 && i%sample == 0) {
					mu.Lock()
					if err != nil && len(res.Errors) < maxErrors {
						res.Errors = append(res.Errors, fmt.Sprintf("%s %s: %v", tag, ops[i].Req.Kind, err))
					}
					if err == nil {
						res.Bodies[i] = string(body)
					}
					mu.Unlock()
				}
			}
		}()
	}
	// The dispatcher sleeps on its own OS thread: the runtime's timers
	// round sub-millisecond sleeps up to a millisecond, which would make
	// the generator, not the server, shape the latencies at high rates.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := range ops {
		due := ops[i].Due
		if d := time.Until(start.Add(due)); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only dispatches early
		}
		res.Due[i] = int64(due)
		res.Sent[i] = int64(time.Since(start))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// send performs one request and checks its protocol-level outcome: a 200,
// and for streams every row answered and a complete trailer. It returns
// the body and, for an ingest, the acknowledged LSN.
func send(client *http.Client, base, id string, r request) ([]byte, int64, error) {
	method, path, body, err := r.http()
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-Request-ID", id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(out)))
	}
	switch r.Kind {
	case kBatchFill:
		return out, 0, checkBatch(out, len(r.Batch))
	case kIngest:
		lsn, err := checkIngest(out)
		return out, lsn, err
	}
	return out, 0, nil
}

// checkBatch verifies a batch stream answered every row without an error
// line and closed with its trailer.
func checkBatch(body []byte, rows int) error {
	answered := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ln struct {
			Done    bool            `json:"done"`
			Results int             `json:"results"`
			Errors  int             `json:"errors"`
			Error   json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return fmt.Errorf("batch line: %v", err)
		}
		switch {
		case ln.Done:
			if ln.Results != rows || ln.Errors != 0 || answered != rows {
				return fmt.Errorf("batch trailer results=%d errors=%d answered=%d, want %d rows", ln.Results, ln.Errors, answered, rows)
			}
			return nil
		case ln.Error != nil:
			return fmt.Errorf("batch row error: %s", ln.Error)
		default:
			answered++
		}
	}
	return fmt.Errorf("batch stream ended without a trailer")
}

// checkIngest verifies a one-table ingest was accepted and returns its LSN.
func checkIngest(body []byte) (int64, error) {
	var lsn int64
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var ln struct {
			LSN      int64 `json:"lsn"`
			Done     bool  `json:"done"`
			Accepted int   `json:"accepted"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return 0, fmt.Errorf("ingest line: %v", err)
		}
		if ln.Done {
			if ln.Accepted != 1 || lsn == 0 {
				return 0, fmt.Errorf("ingest trailer accepted=%d lsn=%d", ln.Accepted, lsn)
			}
			return lsn, nil
		}
		lsn = ln.LSN
	}
	return 0, fmt.Errorf("ingest stream ended without a trailer")
}
