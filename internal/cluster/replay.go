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

// A ReplayGroup plays one slot group of a replay: it submits the specs
// that arrive together through the door (none for an idle slot), flushes
// them to the planners, and ticks the given number of slots.
type ReplayGroup func(specs []serve.RequestSpec, ticks int) error

// Replay is the cluster's replay loop, whatever the trace. groups calls
// play once per slot group, in trace order; refused (optional) receives
// the index in its group, and the reason, of every spec the router
// refused, before the group's slots tick. Once groups returns, intake
// drains and the cluster keeps ticking until every shard has settled its
// pending requests and released its streams. Replay returns the number of
// specs accepted.
func Replay(c *Cluster, groups func(play ReplayGroup) error, refused func(index int, err error)) (accepted int, err error) {
	err = groups(func(specs []serve.RequestSpec, ticks int) error {
		res, err := c.SubmitBatch(specs)
		for _, r := range res.Refused {
			if refused != nil {
				refused(r.Index, r.Err)
			}
		}
		if err == nil {
			accepted += len(res.IDs)
			err = c.Flush()
		}
		for ; err == nil && ticks > 0; ticks-- {
			err = c.Tick()
		}
		return err
	})
	if err != nil {
		return accepted, err
	}
	if err := c.Drain(); err != nil {
		return accepted, err
	}
	for c.Alive() {
		// ErrStopped: the tick found the drain complete or the cluster
		// stopped, and Alive ends the loop.
		if err := c.Tick(); err != nil && !errors.Is(err, serve.ErrStopped) {
			return accepted, err
		}
	}
	return accepted, nil
}

// ReplayNDJSON replays an NDJSON request trace through Replay: every
// group of non-blank lines is one slot's batch, every blank line a slot
// boundary (consecutive blanks replay idle slots) — the exact wire format
// of POST /v1/requests:batch. lineErr (optional) receives one callback per
// malformed or refused line.
func ReplayNDJSON(c *Cluster, src io.Reader, lineErr func(line int, msg string)) (ReplayStats, error) {
	var (
		st       ReplayStats
		group    strings.Builder
		baseLine = 1 // the trace line of the group's first line
		lineNo   = 0
		// lines and specs are every group's storage in turn: SubmitBatch
		// copies each spec into its request's row.
		lines []serve.BatchLine
		specs []serve.RequestSpec
	)
	badLine := func(line int, msg string) {
		if lineErr != nil {
			lineErr(baseLine+line-1, msg)
		}
		st.BadLines++
	}
	// slot plays the lines read since the last boundary as one slot.
	slot := func(play ReplayGroup) error {
		specs = specs[:0]
		if group.Len() > 0 {
			var lineErrs []serve.LineError
			var err error
			lines, lineErrs, err = serve.AppendBatch(lines[:0], strings.NewReader(group.String()), 0, 0)
			if err != nil {
				return fmt.Errorf("cluster replay: slot %d: %w", st.Slots, err)
			}
			for _, le := range lineErrs {
				badLine(le.Line, le.Error)
			}
			for _, ln := range lines {
				specs = append(specs, ln.Spec)
			}
		}
		if err := play(specs, 1); err != nil {
			return fmt.Errorf("cluster replay: slot %d: %w", st.Slots, err)
		}
		st.Slots++
		group.Reset()
		baseLine = lineNo + 1
		return nil
	}
	groups := func(play ReplayGroup) error {
		br := bufio.NewReaderSize(src, 1<<20)
		for rerr := error(nil); rerr == nil; {
			var line string
			if line, rerr = br.ReadString('\n'); rerr != nil && !errors.Is(rerr, io.EOF) {
				return rerr
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
				if err := slot(play); err != nil {
					return err
				}
			}
		}
		if group.Len() > 0 {
			return slot(play)
		}
		return nil
	}
	// A spec the router refused is a bad line, reported after the lines
	// that did not decode.
	var err error
	st.Accepted, err = Replay(c, groups, func(i int, err error) { badLine(lines[i].Line, err.Error()) })
	return st, err
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
