package buildtagsfixture

const marker = "sparc64"
