package trace

const keptDepth = 4
