package snaprec

func (e *engine) ExportState() EngineState {
	return e.st
}

func (e *engine) RestoreState(st EngineState) {
	e.st = st
}
