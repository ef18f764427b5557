package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spanRunSlot      spanName = iota // interconnect.Switch.RunSlot, timed by the slot loop
	spanSchedule                     // core.Scheduler.Schedule for one non-empty port
	spanCoreBatch                    // the in-process Remote batch inside a grant round
	spanClusterBatch                 // cluster.Controller.ScheduleBatch
	spanSubmit                       // grant.Client.Submit
	spanRequest                      // one grant request, due time to verdict receipt
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"interconnect.RunSlot",
	"core.Schedule",
	"core.ScheduleBatch",
	"cluster.ScheduleBatch",
	"grant.Client.Submit",
	"grant.request",
}

// span is one timed interval. Parent indexes the enclosing span on the
// same lane (-1 for a root); id is the slot or request identifier and
// arg a port or connection number.
type span struct {
	start, end int64
	id         int64
	parent     int32
	arg        int32
	name       spanName
}

// lane is the span buffer of one goroutine. Spans on a lane nest
// strictly, so a span's self time is its duration minus its children's.
// Spans stay in memory until the run ends.
type lane struct {
	name  string
	spans []span
	open  int32 // innermost open span, -1 when none
}

func newLane(name string, capacity int) *lane {
	return &lane{name: name, spans: make([]span, 0, capacity), open: -1}
}

// begin opens a span as a child of the innermost open span.
func (l *lane) begin(name spanName, id int64, arg int32) int32 {
	l.spans = append(l.spans, span{name: name, id: id, arg: arg, parent: l.open, start: nowNS()})
	i := int32(len(l.spans) - 1)
	l.open = i
	return i
}

// end closes span i, which must be the innermost open span.
func (l *lane) end(i int32) {
	l.spans[i].end = nowNS()
	l.open = l.spans[i].parent
}

// record appends a span measured elsewhere, with no parent.
func (l *lane) record(name spanName, id int64, arg int32, start, end int64) {
	l.spans = append(l.spans, span{name: name, id: id, arg: arg, parent: -1, start: start, end: end})
}

// reset drops every span, keeping the buffer.
func (l *lane) reset() {
	l.spans = l.spans[:0]
	l.open = -1
}

// durations returns the durations of the lane's spans called name.
func (l *lane) durations(name spanName) *samples {
	s := newSamples(0)
	for _, sp := range l.spans {
		if sp.name == name {
			s.add(sp.end - sp.start)
		}
	}
	return s
}

// selfRow is one line of the self-time table.
type selfRow struct {
	count       int64
	total, self int64 // nanoseconds
}

// selfTimes aggregates spans by name: total duration, and self time —
// the duration minus the part covered by child spans.
func selfTimes(lanes []*lane) [numSpanNames]selfRow {
	var rows [numSpanNames]selfRow
	for _, l := range lanes {
		for _, sp := range l.spans {
			d := sp.end - sp.start
			r := &rows[sp.name]
			r.count++
			r.total += d
			r.self += d
			if sp.parent >= 0 {
				rows[l.spans[sp.parent].name].self -= d
			}
		}
	}
	return rows
}

// writeSelfTable prints the self-time table, per slot when perSlot > 0.
func writeSelfTable(w io.Writer, rows [numSpanNames]selfRow, perSlot int64) {
	fmt.Fprintf(w, "  %-24s %10s %14s %14s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/slot")
	for n, r := range rows {
		if r.count == 0 {
			continue
		}
		per := 0.0
		if perSlot > 0 {
			per = float64(r.self) / float64(perSlot) / 1e3
		}
		fmt.Fprintf(w, "  %-24s %10d %14.3f %14.3f %12.3f\n",
			spanNames[n], r.count, float64(r.total)/1e6, float64(r.self)/1e6, per)
	}
}

// maxChromeEvents bounds the Chrome trace file; the self-time table
// always covers every recorded span.
const maxChromeEvents = 200000

// writeTrace writes the lanes as Chrome trace_event JSON (lane = thread;
// grant requests, which overlap, as async events) and the self-time
// table next to it, returning the trace file's path.
func writeTrace(dir, workload string, lanes []*lane, rows [numSpanNames]selfRow, perSlot int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	events := 0
	sep := func() {
		if events > 0 {
			bw.WriteByte(',')
		}
		events++
	}
	for tid, l := range lanes {
		sep()
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, l.name)
	}
	us := func(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
	for tid, l := range lanes {
		for i, sp := range l.spans {
			if events >= maxChromeEvents {
				break
			}
			name := spanNames[sp.name]
			if sp.name == spanRequest {
				sep()
				fmt.Fprintf(bw, `{"name":%q,"cat":"request","ph":"b","id":%d,"pid":1,"tid":%d,"ts":%s,"args":{"conn":%d}}`,
					name, sp.id, tid, us(sp.start), sp.arg)
				sep()
				fmt.Fprintf(bw, `{"name":%q,"cat":"request","ph":"e","id":%d,"pid":1,"tid":%d,"ts":%s}`,
					name, sp.id, tid, us(sp.end))
				continue
			}
			sep()
			fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"span":%d,"parent":%d,"id":%d,"arg":%d}}`,
				name, tid, us(sp.start), us(sp.end-sp.start), i, sp.parent, sp.id, sp.arg)
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	tf, err := os.Create(filepath.Join(dir, workload+".selftime.txt"))
	if err != nil {
		return "", err
	}
	writeSelfTable(tf, rows, perSlot)
	if err := tf.Close(); err != nil {
		return "", err
	}
	return path, nil
}
