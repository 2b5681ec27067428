package session

import (
	"sort"
	"time"

	"unilog/internal/events"
	"unilog/internal/thrift"
)

// InactivityGap delimits user sessions: "following standard practices, we
// use a 30-minute inactivity interval" (§4.2).
const InactivityGap = 30 * time.Minute

// Record is the materialized session relation of §4.2:
//
//	user_id: long, session_id: string, ip: string,
//	session_sequence: string, duration: int
//
// Start is an implementation extra used to assign a record to its day
// partition; the paper's relation is "slightly simplified".
type Record struct {
	UserID    int64
	SessionID string
	IP        string
	// Sequence is the unicode session-sequence string. Other than overall
	// duration, no temporal information survives — only relative order.
	Sequence string
	// Duration is the whole-second interval between the first and last
	// event of the session.
	Duration int32
	// Start is the timestamp of the first event, in ms since the epoch.
	Start int64
}

// EventCount returns the number of events in the session.
func (r *Record) EventCount() int {
	n := 0
	for range r.Sequence {
		n++
	}
	return n
}

// Thrift field ids for Record.
const (
	rfUserID    = 1
	rfSessionID = 2
	rfIP        = 3
	rfSequence  = 4
	rfDuration  = 5
	rfStart     = 6
)

// Encode writes the record as a Thrift struct.
func (r *Record) Encode(enc thrift.Encoder) {
	enc.WriteStructBegin()
	enc.WriteFieldBegin(thrift.I64, rfUserID)
	enc.WriteI64(r.UserID)
	enc.WriteFieldBegin(thrift.STRING, rfSessionID)
	enc.WriteString(r.SessionID)
	enc.WriteFieldBegin(thrift.STRING, rfIP)
	enc.WriteString(r.IP)
	enc.WriteFieldBegin(thrift.STRING, rfSequence)
	enc.WriteString(r.Sequence)
	enc.WriteFieldBegin(thrift.I32, rfDuration)
	enc.WriteI32(r.Duration)
	enc.WriteFieldBegin(thrift.I64, rfStart)
	enc.WriteI64(r.Start)
	enc.WriteFieldStop()
	enc.WriteStructEnd()
}

// Decode reads the record from a Thrift struct.
func (r *Record) Decode(dec thrift.Decoder) error {
	if err := dec.ReadStructBegin(); err != nil {
		return err
	}
	for {
		ft, id, err := dec.ReadFieldBegin()
		if err != nil {
			return err
		}
		if ft == thrift.STOP {
			break
		}
		switch id {
		case rfUserID:
			r.UserID, err = dec.ReadI64()
		case rfSessionID:
			r.SessionID, err = dec.ReadString()
		case rfIP:
			r.IP, err = dec.ReadString()
		case rfSequence:
			r.Sequence, err = dec.ReadString()
		case rfDuration:
			r.Duration, err = dec.ReadI32()
		case rfStart:
			r.Start, err = dec.ReadI64()
		default:
			err = dec.Skip(ft)
		}
		if err != nil {
			return err
		}
	}
	return dec.ReadStructEnd()
}

// sessionKey identifies one (user, session-id) group.
type sessionKey struct {
	userID    int64
	sessionID string
}

// pendingEvent is the projection of a client event the sessionizer keeps:
// name, timestamp, IP — everything else is discarded early, mirroring the
// early-projection Pig idiom of §4.1.
type pendingEvent struct {
	name string
	ts   int64
	ip   string
}

// Builder reconstructs sessions from a stream of client events. Feed every
// event of the day with Add or AddFields, then call Finish.
//
// This is the materialization of the group-by the paper wants to avoid
// doing per-query: "essentially, a large group-by across potentially
// terabytes of data" (§4.1) — done once here, so queries don't have to.
type Builder struct {
	dict   *Dictionary
	gap    time.Duration
	groups map[sessionKey][]pendingEvent
	errs   []error
}

// NewBuilder returns a Builder encoding with the given dictionary and the
// standard 30-minute gap.
func NewBuilder(dict *Dictionary) *Builder {
	return &Builder{
		dict:   dict,
		gap:    InactivityGap,
		groups: make(map[sessionKey][]pendingEvent),
	}
}

// SetGap overrides the inactivity gap (used by ablation experiments).
func (b *Builder) SetGap(gap time.Duration) { b.gap = gap }

// Add feeds one client event.
func (b *Builder) Add(e *events.ClientEvent) {
	b.AddFields(e.UserID, e.SessionID, e.IP, e.Name.String(), e.Timestamp)
}

// AddFields feeds one event as the five fields a session is built from,
// so a columnar pass need not assemble whole events.
func (b *Builder) AddFields(userID int64, sessionID, ip, name string, ts int64) {
	k := sessionKey{userID: userID, sessionID: sessionID}
	b.groups[k] = append(b.groups[k], pendingEvent{name: name, ts: ts, ip: ip})
}

// Finish orders each group by timestamp, splits it on inactivity gaps, and
// encodes each resulting session. Records are returned sorted by
// (UserID, SessionID, Start) for deterministic output.
func (b *Builder) Finish() ([]Record, error) {
	keys := make([]sessionKey, 0, len(b.groups))
	for k := range b.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].userID != keys[j].userID {
			return keys[i].userID < keys[j].userID
		}
		return keys[i].sessionID < keys[j].sessionID
	})
	var out []Record
	gapMillis := b.gap.Milliseconds()
	for _, k := range keys {
		evs := b.groups[k]
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].ts != evs[j].ts {
				return evs[i].ts < evs[j].ts
			}
			return evs[i].name < evs[j].name
		})
		start := 0
		for i := 1; i <= len(evs); i++ {
			if i < len(evs) && evs[i].ts-evs[i-1].ts <= gapMillis {
				continue
			}
			seg := evs[start:i]
			rec, err := b.encodeSegment(k, seg)
			if err != nil {
				return nil, err
			}
			out = append(out, rec)
			start = i
		}
	}
	return out, nil
}

func (b *Builder) encodeSegment(k sessionKey, seg []pendingEvent) (Record, error) {
	names := make([]string, len(seg))
	for i, e := range seg {
		names[i] = e.name
	}
	seq, err := b.dict.Encode(names)
	if err != nil {
		return Record{}, err
	}
	return Record{
		UserID:    k.userID,
		SessionID: k.sessionID,
		IP:        seg[0].ip,
		Sequence:  seq,
		Duration:  int32((seg[len(seg)-1].ts - seg[0].ts) / 1000),
		Start:     seg[0].ts,
	}, nil
}
