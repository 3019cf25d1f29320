package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/atomicio"
	"repro/internal/plot"
	"repro/internal/report"
	"repro/internal/scenario"
)

// Trial is one completed evaluation in the study log: the point, the
// measure-window scale it ran at, its self-describing params echo, and
// either the three objectives or the error that prevented them.
type Trial struct {
	ID         int           `json:"id"`
	Point      Point         `json:"point"`
	Scale      float64       `json:"scale"`
	Params     report.Params `json:"params"`
	Objectives *Objectives   `json:"objectives,omitempty"`
	Error      string        `json:"error,omitempty"`
}

// studyHeader is the first log line: the identity of the search that
// produced the log. A resume with a different space, sampler, or budget
// would silently replay garbage, so Open rejects any mismatch.
type studyHeader struct {
	SpaceSHA256 string  `json:"space_sha256"`
	Sampler     string  `json:"sampler"`
	Seed        uint64  `json:"seed"`
	Trials      int     `json:"trials"`
	Batch       int     `json:"batch"`
	Eta         int     `json:"eta"`
	MinScale    float64 `json:"min_scale"`
	Gamma       float64 `json:"gamma"`
}

// logRecord is the payload of one trials.jsonl line: exactly one of the
// fields is set.
type logRecord struct {
	Study *studyHeader `json:"study,omitempty"`
	Trial *Trial       `json:"trial,omitempty"`
}

// journalLine is one trials.jsonl line as written:
//
//	{"crc32":"9a3f0c1e","record":{"trial":{...}}}
//
// CRC32 is the IEEE CRC-32 of Record's exact bytes, in eight hex digits.
// Record stays raw, so checking a line never re-encodes it.
type journalLine struct {
	CRC32  string          `json:"crc32"`
	Record json.RawMessage `json:"record"`
}

// errUnchecksummed marks a line from a log written before the journal
// format: a bare record with no checksum.
var errUnchecksummed = errors.New("record has no checksum")

// Pending is one trial awaiting evaluation: the materialized scenario plus
// everything the evaluator needs to report it back.
type Pending struct {
	ID     int
	Point  Point
	Scale  float64
	Params report.Params
	// Scenario is the fully materialized, validated scenario to run.
	Scenario *scenario.Scenario
}

// RecordFunc reports one pending trial's outcome back to the study. The
// study is not safe for concurrent records: a parallel evaluator must
// serialize its calls (fleet.Run's onDone already does).
type RecordFunc func(id int, sum report.Summary, evalErr error)

// EvalFunc evaluates a generation of pending trials, reporting each one —
// in any completion order — through record before returning.
type EvalFunc func(pending []Pending, record RecordFunc)

// Study drives one design-space search: it replays the sampler's proposal
// stream, reuses every trial already present in the study log, hands the
// rest to the evaluator, and appends each completed trial to the log so an
// interrupted study resumes without re-evaluating anything.
type Study struct {
	// OnTrialDone, when set, fires after each freshly evaluated (not
	// cached) trial with the running fresh count — progress reporting and
	// the kill-token crash harness hang off it.
	OnTrialDone func(fresh int)

	space   *Space
	sampler Sampler
	dir     string
	header  studyHeader

	trials     []Trial     // sorted by ID
	byID       map[int]int // trial ID -> index in trials
	pending    map[int]Pending
	cached     int
	fresh      int
	persistErr error
	// headerLogged is set once the log on disk starts with the header.
	headerLogged bool
}

// TrialName is the experiment name a trial's summary carries.
func TrialName(id int) string { return fmt.Sprintf("trial-%06d", id) }

// spaceSHA256 hashes the canonical JSON encoding of the space.
func spaceSHA256(sp *Space) (string, error) {
	js, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:]), nil
}

// Open validates the space, builds the sampler, and binds the study to a
// directory (empty dir = in-memory study, used by tests). If the directory
// already holds a study log with a matching header, its completed trials
// are loaded and will be reused instead of re-evaluated. Open writes to
// the log only to cut off a torn last line.
func Open(sp *Space, kind string, opt Options, dir string) (*Study, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s, err := NewSampler(kind, sp, opt)
	if err != nil {
		return nil, err
	}
	opt = opt.defaulted()
	hash, err := spaceSHA256(sp)
	if err != nil {
		return nil, err
	}
	st := &Study{
		space:   sp,
		sampler: s,
		dir:     dir,
		header: studyHeader{
			SpaceSHA256: hash,
			Sampler:     kind,
			Seed:        sp.Seed,
			Trials:      opt.Trials,
			Batch:       opt.Batch,
			Eta:         opt.Eta,
			MinScale:    opt.MinScale,
			Gamma:       opt.Gamma,
		},
		byID:    make(map[int]int),
		pending: make(map[int]Pending),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := st.loadLog(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *Study) logPath() string      { return filepath.Join(st.dir, "trials.jsonl") }
func (st *Study) frontierPath() string { return filepath.Join(st.dir, "frontier.json") }

// Cached is how many trials the current Run reused from the study log.
func (st *Study) Cached() int { return st.cached }

// Fresh is how many trials the current Run actually evaluated.
func (st *Study) Fresh() int { return st.fresh }

// Trials returns a copy of the completed trials, sorted by ID.
func (st *Study) Trials() []Trial { return append([]Trial(nil), st.trials...) }

// loadLog reads an existing trials.jsonl. Every line must carry a record
// whose checksum matches; the header must be the first record and match
// this study's identity, and no trial ID may appear twice. The last line
// alone may be torn by a kill between append and fsync: if it lacks its
// newline, fails its checksum or does not parse, it is cut off and its
// trial runs again. A bad line before the last is corruption, and the
// file is left as it was.
func (st *Study) loadLog() error {
	path := st.logPath()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	good := 0 // end of the last good line
	for lineNo := 1; good < len(data); lineNo++ {
		n := bytes.IndexByte(data[good:], '\n')
		if n < 0 {
			break // torn: the last append never wrote its newline
		}
		rec, err := decodeLine(data[good : good+n])
		if errors.Is(err, errUnchecksummed) {
			return fmt.Errorf("dse: %s is a study log without checksums, from an older optodse; rerun the study in a fresh directory", path)
		}
		if err != nil {
			if good+n+1 == len(data) {
				break // torn: the last line is incomplete
			}
			return fmt.Errorf("dse: %s is corrupt at line %d: %w", path, lineNo, err)
		}
		switch {
		case rec.Study != nil && lineNo > 1:
			return fmt.Errorf("dse: %s has a study header at line %d; it must be the first record", path, lineNo)
		case rec.Study != nil:
			if *rec.Study != st.header {
				return fmt.Errorf("dse: %s belongs to a different study (space, sampler, or budget changed); use a fresh directory", path)
			}
			st.headerLogged = true
		case lineNo == 1:
			return fmt.Errorf("dse: %s has trials but no study header", path)
		default:
			if _, dup := st.byID[rec.Trial.ID]; dup {
				return fmt.Errorf("dse: %s records trial %d twice (again at line %d)", path, rec.Trial.ID, lineNo)
			}
			st.insert(*rec.Trial)
		}
		good += n + 1
	}
	if good == len(data) {
		return nil
	}
	// Cut the torn tail durably: were it to come back after a crash, the
	// next append would bury it mid-file as corruption.
	return syncedWrite(path, os.O_WRONLY, func(f *os.File) error { return f.Truncate(int64(good)) })
}

// decodeLine checks one log line's checksum and decodes its record.
func decodeLine(line []byte) (logRecord, error) {
	var ln journalLine
	if err := json.Unmarshal(line, &ln); err != nil {
		return logRecord{}, err
	}
	var rec logRecord
	if ln.Record == nil {
		if json.Unmarshal(line, &rec) == nil && (rec.Study != nil || rec.Trial != nil) {
			return logRecord{}, errUnchecksummed
		}
		return logRecord{}, errors.New("line holds no record")
	}
	if sum := checksum(ln.Record); ln.CRC32 != sum {
		return logRecord{}, fmt.Errorf("checksum %q does not match the record's %s", ln.CRC32, sum)
	}
	if err := json.Unmarshal(ln.Record, &rec); err != nil {
		return logRecord{}, err
	}
	if (rec.Study == nil) == (rec.Trial == nil) {
		return logRecord{}, errors.New("record must hold exactly one of study and trial")
	}
	return rec, nil
}

// appendLine appends rec to buf as one newline-terminated log line.
func appendLine(buf []byte, rec logRecord) ([]byte, error) {
	js, err := json.Marshal(rec)
	if err != nil {
		return buf, err
	}
	line, err := json.Marshal(journalLine{CRC32: checksum(js), Record: js})
	if err != nil {
		return buf, err
	}
	return append(append(buf, line...), '\n'), nil
}

func checksum(b []byte) string { return fmt.Sprintf("%08x", crc32.ChecksumIEEE(b)) }

// insert adds a trial, keeping trials sorted by ID. Trials complete in ID
// order under Sequential, so this is usually an append.
func (st *Study) insert(t Trial) {
	i := sort.Search(len(st.trials), func(i int) bool { return st.trials[i].ID > t.ID })
	st.trials = slices.Insert(st.trials, i, t)
	for ; i < len(st.trials); i++ {
		st.byID[st.trials[i].ID] = i
	}
}

// persist appends one trial's line to the log and fsyncs it, so the trial
// is on disk before Record returns and OnTrialDone fires. The first append
// carries the header line in the same write, so Open on an empty directory
// writes nothing. The cost of a trial does not grow with the study, and a
// kill mid-append tears at most the last line, which the next Open cuts
// off. Lines land in completion order; the loader sorts by ID.
func (st *Study) persist(t *Trial) error {
	var buf []byte
	var err error
	if !st.headerLogged {
		if buf, err = appendLine(buf, logRecord{Study: &st.header}); err != nil {
			return err
		}
	}
	if buf, err = appendLine(buf, logRecord{Trial: t}); err != nil {
		return err
	}
	err = syncedWrite(st.logPath(), os.O_WRONLY|os.O_APPEND|os.O_CREATE, func(f *os.File) error {
		_, err := f.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("dse: appending to %s: %w", st.logPath(), err)
	}
	st.headerLogged = true
	return nil
}

// syncedWrite opens path with flag, applies write, and fsyncs and closes
// the file, reporting the first error.
func syncedWrite(path string, flag int, write func(*os.File) error) error {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Record reports one pending trial's outcome. It is handed to evaluators
// as the RecordFunc; the study appends the trial to its log and fsyncs it
// before returning, so every completed trial survives a crash.
func (st *Study) Record(id int, sum report.Summary, evalErr error) {
	p, ok := st.pending[id]
	if !ok {
		if st.persistErr == nil {
			st.persistErr = fmt.Errorf("dse: evaluator recorded unknown trial %d", id)
		}
		return
	}
	delete(st.pending, id)
	st.recordTrial(p, sum, evalErr)
}

func (st *Study) recordTrial(p Pending, sum report.Summary, evalErr error) {
	t := Trial{
		ID:     p.ID,
		Point:  append(Point(nil), p.Point...),
		Scale:  p.Scale,
		Params: p.Params,
	}
	if evalErr != nil {
		t.Error = evalErr.Error()
	} else {
		o := ObjectivesOf(sum)
		t.Objectives = &o
	}
	st.insert(t)
	st.fresh++
	// After a failed append nothing more is appended, so a torn line can
	// only ever be the last; persistErr fails the Run.
	if st.dir != "" && st.persistErr == nil {
		st.persistErr = st.persist(&t)
	}
	if st.OnTrialDone != nil {
		st.OnTrialDone(st.fresh)
	}
}

// ObjectivesOf extracts the study's three objectives from a trial summary.
//
// The delivered-loss fraction is computed in flit units so it covers both
// failure modes the stack has: end-to-end packet drops (watchdog kills,
// unreachable destinations) and wire-level flit losses the retransmission
// protocol absorbed (CRC discards, flits lost to a hard-down link). Dropped
// packets are charged at the run's mean delivered packet size. With uniform
// packet sizes and no wire loss this reduces exactly to the packet-level
// Dropped/(Delivered+Dropped); under the sustained-BER scenario — where the
// links replay every corrupted flit and end-to-end drops are structurally
// zero — it is the corruption burden the loss-aware policies exist to
// contain.
func ObjectivesOf(sum report.Summary) Objectives {
	o := Objectives{
		MeanLatencyCycles: sum.MeanLatency,
		EnergyJ:           sum.EnergyJ,
	}
	lost := 0.0
	if sum.Reliability != nil {
		lost += float64(sum.Reliability.CrcDrops + sum.Reliability.LostToDown)
	}
	delivered := float64(sum.DeliveredFlits)
	if delivered == 0 {
		// Summaries predating the flit counter (or packet-only sources):
		// fall back to packet units.
		delivered = float64(sum.Delivered)
	}
	if sum.Dropped > 0 && sum.Delivered > 0 {
		lost += float64(sum.Dropped) * delivered / float64(sum.Delivered)
	}
	if total := delivered + lost; total > 0 {
		o.LossFrac = lost / total
	}
	return o
}

// Run drives the search to completion: generation by generation, cached
// trials are replayed from the log, the rest go to eval, and the sampler
// observes every outcome in trial-ID order (so the proposal stream never
// depends on evaluation scheduling). When the study has a directory, the
// final frontier JSON and scatter plots are written there too.
func (st *Study) Run(eval EvalFunc) (*Frontier, error) {
	nextID := 0
	for {
		batch := st.sampler.NextBatch()
		if len(batch) == 0 {
			break
		}
		ids := make([]int, 0, len(batch))
		var todo []Pending
		for _, prop := range batch {
			id := nextID
			nextID++
			ids = append(ids, id)
			p := Pending{
				ID:     id,
				Point:  append(Point(nil), prop.Point...),
				Scale:  prop.Scale,
				Params: st.space.ParamsFor(prop.Point),
			}
			if i, ok := st.byID[id]; ok {
				// Already in the log: verify the replayed proposal is the
				// trial the log recorded, then reuse it.
				if st.space.Key(st.trials[i].Point, st.trials[i].Scale) != st.space.Key(prop.Point, prop.Scale) {
					return nil, fmt.Errorf("dse: logged trial %d does not match the replayed proposal; the study log belongs to different inputs", id)
				}
				st.cached++
				continue
			}
			sc, err := st.space.Materialize(prop.Point, prop.Scale)
			if err != nil {
				// A combination two dims only reach together (e.g. a ladder
				// min above a ladder max) fails here; log it as a failed
				// trial so the sampler learns the region is infeasible.
				st.recordTrial(p, report.Summary{}, err)
				continue
			}
			p.Scenario = sc
			st.pending[id] = p
			todo = append(todo, p)
		}
		if len(todo) > 0 {
			eval(todo, st.Record)
		}
		if st.persistErr != nil {
			return nil, st.persistErr
		}
		for _, id := range ids {
			i, ok := st.byID[id]
			if !ok {
				return nil, fmt.Errorf("dse: evaluator never recorded trial %d", id)
			}
			st.sampler.Observe(st.trials[i])
		}
	}
	fr := st.Frontier()
	if st.dir != "" {
		js, err := fr.JSON()
		if err != nil {
			return nil, err
		}
		if err := atomicio.WriteFile(st.frontierPath(), js, 0o644); err != nil {
			return nil, err
		}
		if err := st.writePlots(fr); err != nil {
			return nil, err
		}
	}
	return fr, nil
}

// FrontierPoint is one non-dominated trial.
type FrontierPoint struct {
	Trial      int           `json:"trial"`
	Params     report.Params `json:"params"`
	Objectives Objectives    `json:"objectives"`
}

// Frontier is the study outcome: the Pareto-optimal trials over (mean
// latency, energy, loss), plus the normalized hypervolume indicator of
// the full evaluated set — the scalar that lets two samplers over the
// same space be compared.
type Frontier struct {
	Trials      int             `json:"trials"`
	Points      []FrontierPoint `json:"points"`
	Hypervolume float64         `json:"hypervolume"`
}

// JSON renders the frontier deterministically (params maps marshal with
// sorted keys), newline-terminated — the bytes CI goldens diff against.
func (f *Frontier) JSON() ([]byte, error) {
	js, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(js, '\n'), nil
}

// Frontier extracts the Pareto front over all successful full-scale
// trials. Short-run halving rungs are triage, not evidence, so only
// trials at scale 1 are eligible.
func (st *Study) Frontier() *Frontier {
	var full []Trial
	for _, t := range st.trials {
		if t.Objectives != nil && t.Scale >= 1 {
			full = append(full, t)
		}
	}
	vecs := make([][3]float64, len(full))
	for i, t := range full {
		vecs[i] = t.Objectives.vec()
	}
	fr := &Frontier{Trials: len(full), Hypervolume: NormalizedHypervolume(vecs)}
	for _, i := range ParetoFront(vecs) {
		fr.Points = append(fr.Points, FrontierPoint{
			Trial:      full[i].ID,
			Params:     full[i].Params,
			Objectives: *full[i].Objectives,
		})
	}
	sort.Slice(fr.Points, func(a, b int) bool {
		pa, pb := fr.Points[a].Objectives.vec(), fr.Points[b].Objectives.vec()
		for k := 0; k < 3; k++ {
			if pa[k] != pb[k] {
				return pa[k] < pb[k]
			}
		}
		return fr.Points[a].Trial < fr.Points[b].Trial
	})
	return fr
}

// writePlots renders the two frontier scatter charts: latency-vs-energy
// and latency-vs-loss, each showing every full-scale trial with the
// frontier overlaid.
func (st *Study) writePlots(fr *Frontier) error {
	onFront := make(map[int]bool, len(fr.Points))
	for _, p := range fr.Points {
		onFront[p.Trial] = true
	}
	type axis struct {
		file, xlabel string
		x            func(Objectives) float64
	}
	axes := []axis{
		{"frontier-latency-energy.svg", "link energy (J)", func(o Objectives) float64 { return o.EnergyJ }},
		{"frontier-latency-loss.svg", "delivered-loss fraction", func(o Objectives) float64 { return o.LossFrac }},
	}
	for _, ax := range axes {
		ch := plot.Chart{
			Title:  "DSE frontier: " + st.header.Sampler,
			XLabel: ax.xlabel,
			YLabel: "mean latency (cycles)",
		}
		var tx, ty, fx, fy []float64
		for _, t := range st.trials {
			if t.Objectives == nil || t.Scale < 1 {
				continue
			}
			if onFront[t.ID] {
				fx = append(fx, ax.x(*t.Objectives))
				fy = append(fy, t.Objectives.MeanLatencyCycles)
			} else {
				tx = append(tx, ax.x(*t.Objectives))
				ty = append(ty, t.Objectives.MeanLatencyCycles)
			}
		}
		if len(tx)+len(fx) == 0 {
			continue // nothing to plot; an all-failed study still gets its frontier.json
		}
		ch.Series = append(ch.Series,
			plot.Series{Name: "dominated trials", X: tx, Y: ty, Scatter: true},
			plot.Series{Name: "Pareto frontier", X: fx, Y: fy, Scatter: true})
		var buf bytes.Buffer
		if err := ch.WriteSVG(&buf); err != nil {
			return err
		}
		if err := atomicio.WriteFile(filepath.Join(st.dir, ax.file), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
