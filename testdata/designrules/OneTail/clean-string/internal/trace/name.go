package trace

// Naming the retired identifier in a string is not bringing it back.
const retired = "keptDepth"
