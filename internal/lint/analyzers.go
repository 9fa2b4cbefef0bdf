package lint

// All returns the full analyzer suite in a stable order: the per-package
// analyzers first, then the interprocedural ones that run over the module
// call graph.
func All() []Analyzer {
	return []Analyzer{
		MapIter{},
		FloatCmp{},
		ErrCheck{},
		PanicFree{},
		DeterSafe{},
		PanicProp{},
		ResultPkgs{},
		AllocLint{},
		LockOrder{},
		HeldCall{},
		GoLeak{},
		CtxFlow{},
	}
}
