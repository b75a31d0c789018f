import hypothesis

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True)
hypothesis.settings.register_profile(
    "thorough", deadline=None, max_examples=400)
hypothesis.settings.load_profile("default")
