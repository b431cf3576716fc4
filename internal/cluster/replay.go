package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
)

// ReplayStats summarizes one NDJSON replay through a cluster.
type ReplayStats struct {
	Slots    int
	Accepted int
	BadLines int
}

// ReplayNDJSON replays an NDJSON request trace through the cluster's
// batched intake: every group of non-blank lines becomes one routed
// SubmitBatch, every blank line a slot boundary (consecutive blanks
// replay idle slots) — the exact wire format of POST /v1/requests:batch.
// After the trace, intake drains and the cluster keeps ticking
// until every shard has settled its pending requests and released its
// streams. lineErr (optional) receives one callback per malformed line.
func ReplayNDJSON(c *Cluster, src io.Reader, lineErr func(line int, msg string)) (ReplayStats, error) {
	var (
		st       ReplayStats
		group    strings.Builder
		baseLine = 1
		lineNo   = 0
	)
	flushGroup := func() error {
		defer func() {
			group.Reset()
			baseLine = lineNo + 1
		}()
		if group.Len() > 0 {
			lines, lineErrs, err := serve.DecodeBatch(strings.NewReader(group.String()), 0, 0)
			if err != nil {
				return fmt.Errorf("cluster replay: slot %d: %w", st.Slots, err)
			}
			specs := make([]serve.RequestSpec, 0, len(lines))
			for _, ln := range lines {
				if verr := c.ValidateSpec(ln.Spec); verr != nil {
					lineErrs = append(lineErrs, serve.LineError{Line: ln.Line, Error: verr.Error()})
					continue
				}
				specs = append(specs, ln.Spec)
			}
			for _, le := range lineErrs {
				if lineErr != nil {
					lineErr(baseLine+le.Line-1, le.Error)
				}
				st.BadLines++
			}
			res, err := c.SubmitBatch(specs)
			if err != nil {
				return fmt.Errorf("cluster replay: slot %d: %w", st.Slots, err)
			}
			st.Accepted += len(res.IDs)
			if err := c.Flush(); err != nil {
				return err
			}
		}
		st.Slots++
		return c.Tick()
	}

	br := bufio.NewReaderSize(src, 1<<20)
	for {
		line, rerr := br.ReadString('\n')
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return st, rerr
		}
		if len(line) > 0 {
			lineNo++
		}
		switch {
		case strings.TrimSpace(line) != "":
			group.WriteString(line)
			if !strings.HasSuffix(line, "\n") {
				group.WriteByte('\n')
			}
		case len(line) > 0:
			if err := flushGroup(); err != nil {
				return st, err
			}
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
	}
	if group.Len() > 0 {
		if err := flushGroup(); err != nil {
			return st, err
		}
	}

	if err := c.Drain(); err != nil {
		return st, err
	}
	for c.Alive() {
		if err := c.Tick(); err != nil {
			if errors.Is(err, serve.ErrStopped) {
				break
			}
			return st, err
		}
	}
	return st, nil
}

// DumpObserver returns a Config.SlotObserver that records the decision
// trace into dump the way oracle.FrameReplay does: one SlotAdmissions per
// admitting slot (global ids, ascending), every slot's reward in the
// total. Reward is credited at admission, so a slot that admits nothing
// adds none. dump.Submitted is the caller's to set.
func DumpObserver(dump *oracle.ReplayDump) func(slot int, admitted []uint64, reward float64) {
	return func(slot int, admitted []uint64, reward float64) {
		if len(admitted) > 0 {
			ids := make([]int, len(admitted))
			for i, g := range admitted {
				ids[i] = int(g)
			}
			dump.Slots = append(dump.Slots, oracle.SlotAdmissions{Slot: slot, Admitted: ids, Reward: reward})
		}
		dump.TotalReward += reward
	}
}

// ReplayDump replays a trace through a freshly built cluster and
// returns the decision trace in global-id space: one SlotAdmissions per
// admitting slot, ids being submission ordinals — directly comparable
// across shard counts, which is exactly the closure oracle.DiffCluster
// consumes. The passed config's SlotObserver is overridden.
func ReplayDump(cfg Config, trace string) (*oracle.ReplayDump, error) {
	dump := &oracle.ReplayDump{}
	cfg.SlotObserver = DumpObserver(dump)
	cfg.TickInterval = 0
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.Start()
	st, err := ReplayNDJSON(c, strings.NewReader(trace), nil)
	if err != nil {
		c.Stop()
		return nil, err
	}
	if err := c.Stop(); err != nil {
		return nil, err
	}
	<-c.Done()
	dump.Submitted = st.Accepted
	return dump, nil
}
