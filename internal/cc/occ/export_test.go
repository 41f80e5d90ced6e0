package occ

// SetAfterValidate installs the test hook that fires once phase-2 read
// validation has succeeded.
func (e *Engine) SetAfterValidate(f func()) { e.afterValidate = f }
