// Package snaprec is a minimal clean package that keeps its state in a
// record: dropping the record from the export path must wake
// snapshotcomplete, although no write names the record field alone.
package snaprec

// EngineState is the engine's record, its live state and its checkpoint.
type EngineState struct {
	Cursor int64
}

type engine struct {
	st EngineState
}

func (e *engine) step() {
	e.st.Cursor++
}
