package analytics

import (
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/session"
)

// This file implements the §4.1/§5.2 ad-hoc segmentation idiom: "data
// scientists often desire statistics for arbitrary subsets of users (e.g.,
// casual users in the U.K. ...), which require ad hoc queries" — "a join
// with the users table followed by selection with the appropriate criteria".

// RateForSegment computes an impression/action rate over the sessions of a
// user segment: the day's session sequences are joined with the users
// dimension table on user_id, the segment predicate selects rows, and the
// counting UDFs run on the surviving sequences.
//
// users must carry a "user_id" column; the predicate sees the joined tuple
// with the users columns appended after session.SequenceSchema.
func RateForSegment(
	j *dataflow.Job,
	day time.Time,
	dict *session.Dictionary,
	impressions, actions Matcher,
	users *dataflow.Dataset,
	segment func(dataflow.Schema, dataflow.Tuple) bool,
) (RateReport, error) {
	var rep RateReport
	seqs, err := session.LoadSequencesDay(j, day)
	if err != nil {
		return rep, err
	}
	joined, err := seqs.Join(users, "user_id", "user_id")
	if err != nil {
		return rep, err
	}
	defer joined.Close()
	schema := joined.Schema()
	selected := joined.Filter(func(t dataflow.Tuple) bool { return segment(schema, t) })

	ci := NewCounter(dict, impressions)
	ca := NewCounter(dict, actions)
	seqIdx := schema.MustIndex("sequence")
	err = selected.Each(func(t dataflow.Tuple) error {
		seq := t[seqIdx].(string)
		rep.Impressions += ci.Count(seq)
		rep.Actions += ca.Count(seq)
		return nil
	})
	return rep, err
}

// ColumnEquals returns a segment predicate matching one column's value —
// the "users in the U.K." style selection.
func ColumnEquals(column, value string) func(dataflow.Schema, dataflow.Tuple) bool {
	return func(s dataflow.Schema, t dataflow.Tuple) bool {
		i, err := s.Index(column)
		if err != nil {
			return false
		}
		v, ok := t[i].(string)
		return ok && v == value
	}
}
